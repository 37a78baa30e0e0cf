"""The benchmark's own arithmetic: latency summaries, geomeans, the
correctness gate.  Pure NumPy, no import of the solver, so the tests in
``test_perfbench.py`` exercise it without running a workload."""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field

import numpy as np

#: samples that must lie strictly above the reported tail percentile
TAIL_SAMPLES = 10
#: normwise backward error every solve must reach (float64 factors plus
#: two refinement sweeps land near 1e-16; 1e-10 leaves room for the
#: ill-conditioned KKT and circuit analogues without hiding a broken solve)
BACKWARD_ERROR_BOUND = 1e-10
#: relative ∞-norm distance to the splu solution allowed on ``cold16``
SPLU_AGREEMENT_BOUND = 1e-6


def tail_percentile(samples) -> tuple[int, float] | None:
    """The highest whole percentile with at least :data:`TAIL_SAMPLES`
    samples above it, and its value; ``None`` when there are too few
    samples for any percentile above the median to qualify.

    With ``n`` samples, percentile ``p`` leaves ``n - ceil(n·p/100)``
    samples above its nearest-rank value, so ``p`` is the largest whole
    number with ``ceil(n·p/100) <= n - 10``.
    """
    xs = sorted(samples)
    n = len(xs)
    room = n - TAIL_SAMPLES
    if room <= 0:
        return None
    p = (100 * room) // n
    if p <= 50:
        return None
    rank = math.ceil(n * p / 100)          # nearest-rank, 1-based
    return p, xs[rank - 1]


_PROBE_RNG = np.random.default_rng(0)
#: 8 MiB of values gathered through random indices: a working set the
#: size of the factors, so the probe feels the same cache pressure
_PROBE_DATA = _PROBE_RNG.standard_normal(1 << 20)
_PROBE_INDEX = _PROBE_RNG.integers(0, 1 << 20, 1 << 14)


def probe() -> float:
    """Seconds taken by a fixed loop of interpreter work, small NumPy
    operations and gathers from an 8 MiB array, the mix the solver's
    task loops spend their time on.

    Run after every request: on a shared host the speed of the whole
    machine drifts by ±20% between processes, and a request's latency
    divided by the probe's measured next to it cancels that drift.  No
    change to the solver can change the probe."""
    t0 = time.perf_counter()
    counts: dict[int, int] = {}
    x = np.arange(64.0)
    acc = 0.0
    for i in range(800):
        counts[i % 97] = counts.get(i % 97, 0) + 1
        x = x * 1.0000001 + 0.5
        acc += float(x[i % 56:i % 56 + 8].sum())
        if i % 8 == 0:
            lo = (i * 37) % 1024
            acc += float(_PROBE_DATA[_PROBE_INDEX[lo:lo + 4096]].sum())
    if not math.isfinite(acc):
        raise ArithmeticError("probe overflowed")
    return time.perf_counter() - t0


def median(samples) -> float:
    return float(np.median(np.asarray(samples, dtype=np.float64)))


def geomean(values) -> float:
    """Geometric mean of positive values (raises on an empty or
    non-positive input rather than reporting a meaningless number)."""
    v = np.asarray(list(values), dtype=np.float64)
    if v.size == 0 or np.any(v <= 0) or not np.all(np.isfinite(v)):
        raise ValueError(f"geomean needs finite positive values, got {v}")
    return float(np.exp(np.mean(np.log(v))))


def summary(samples) -> dict:
    """Median plus the tail percentile with its sample count."""
    out = {"n": len(samples), "p50": median(samples)}
    tail = tail_percentile(samples)
    if tail is not None:
        out[f"p{tail[0]}"] = tail[1]
    return out


def backward_error(a, x: np.ndarray, b: np.ndarray) -> float:
    """Normwise backward error ``‖b − Ax‖∞ / (‖A‖∞ ‖x‖∞ + ‖b‖∞)`` of a
    vector or the worst column of a panel; ``a`` is a SciPy sparse
    matrix.  Non-finite solutions give ``inf``."""
    if not np.all(np.isfinite(x)):
        return math.inf
    r = b - a @ x
    anorm = float(abs(a).sum(axis=1).max())
    if x.ndim == 1:
        x, b, r = x[:, None], b[:, None], r[:, None]
    num = np.abs(r).max(axis=0)
    den = anorm * np.abs(x).max(axis=0) + np.abs(b).max(axis=0)
    den = np.where(den == 0.0, 1.0, den)
    return float(np.max(num / den))


def relative_distance(x: np.ndarray, ref: np.ndarray) -> float:
    """``‖x − ref‖∞ / ‖ref‖∞`` (``inf`` for a non-finite ``x``)."""
    if not np.all(np.isfinite(x)):
        return math.inf
    den = float(np.abs(ref).max()) or 1.0
    return float(np.abs(x - ref).max()) / den


@dataclass
class Gate:
    """Counts checked operations and the ones that failed.

    An operation fails when it raises, when its backward error exceeds
    :data:`BACKWARD_ERROR_BOUND`, or (given a reference) when it is
    farther than :data:`SPLU_AGREEMENT_BOUND` from the splu solution.
    The first few failures are kept with their reason so the run can
    report them and still complete."""

    attempted: int = 0
    failed: int = 0
    reasons: list[str] = field(default_factory=list)

    def fail(self, what: str, why: str) -> None:
        self.attempted += 1
        self.failed += 1
        if len(self.reasons) < 20:
            self.reasons.append(f"{what}: {why}")

    def check(self, what: str, a, x, b, reference=None) -> bool:
        berr = backward_error(a, x, b)
        if not berr <= BACKWARD_ERROR_BOUND:
            self.fail(what, f"backward error {berr:.3e} > {BACKWARD_ERROR_BOUND:.0e}")
            return False
        if reference is not None:
            dist = relative_distance(x, reference)
            if not dist <= SPLU_AGREEMENT_BOUND:
                self.fail(what, f"distance to splu {dist:.3e} > {SPLU_AGREEMENT_BOUND:.0e}")
                return False
        self.attempted += 1
        return True
