"""Extension bench — the float32 factor path with iterative refinement.

Sparse LU is memory-bound, so the mixed-precision trade is: half the
factor value bytes (and value traffic) against extra refinement sweeps
in float64.  This bench quantifies both sides:

* storage + speed on the paper analogues — the arena ``data`` slab and
  the end-to-end factorise/solve wall-clock, float32 vs float64, with
  the achieved relative residual alongside (the refined float32 answer
  must sit in the float64 accuracy class);
* a conditioning sweep — the same matrix pushed through growing row
  scaling, showing plain LU-IR contracting while κ(A)·ε₃₂ < 1, the
  GMRES-IR escalation extending the usable range, and the
  ``RefinementStalled`` diagnostic taking over beyond it.
"""

from __future__ import annotations

import time

import numpy as np
from common import banner, bench_matrices, matrix

from repro import PanguLU, RefinementStalled, SolverOptions
from repro.analysis import format_table
from repro.sparse import random_sparse


def _run(a, dtype: str):
    """Factorise + solve once; return (factor_s, solve_s, data_bytes,
    residual, outcome)."""
    s = PanguLU(a, SolverOptions(factor_dtype=dtype))
    b = np.ones(a.nrows)
    t0 = time.perf_counter()
    fact = s.factorize()
    t_factor = time.perf_counter() - t0
    data_bytes = fact.blocks.arena.data.nbytes
    t0 = time.perf_counter()
    try:
        x = fact.solve(b)
        outcome = "ok"
        resid = fact.residual_norm(x, b)
    except RefinementStalled as err:
        outcome = "stalled"
        resid = err.achieved
    t_solve = time.perf_counter() - t0
    return t_factor, t_solve, data_bytes, resid, outcome


def test_mixed_precision_storage_and_speed(benchmark):
    banner("Mixed precision — float32 factors vs float64 on the analogues")
    rows = []
    for name in bench_matrices()[:8]:
        a = matrix(name)
        f64 = _run(a, "float64")
        f32 = _run(a, "float32")
        rows.append([
            name, a.nrows,
            f64[2] / 1024, f32[2] / 1024,
            f64[0] * 1e3, f32[0] * 1e3,
            f64[1] * 1e3, f32[1] * 1e3,
            f"{f32[3]:.1e}/{f64[3]:.1e}",
        ])
        # the headline claims, asserted: half the value bytes, and the
        # refined float32 residual in the float64 accuracy class
        assert f32[2] * 2 == f64[2]
        assert f32[4] == "ok"
        assert f32[3] <= max(1e-12, 100 * f64[3])
    print(format_table(
        ["matrix", "n", "data KiB f64", "data KiB f32",
         "factor ms f64", "factor ms f32",
         "solve ms f64", "solve ms f32", "resid f32/f64"],
        rows, float_fmt="{:.2f}",
    ))
    a0 = matrix(bench_matrices()[0])
    benchmark.pedantic(lambda: _run(a0, "float32"), rounds=3, iterations=1)


def test_mixed_precision_conditioning_sweep(benchmark):
    banner("Mixed precision — achieved residual vs conditioning (LU-IR "
           "→ GMRES-IR → RefinementStalled)")
    n = 160
    base = random_sparse(n, 0.05, seed=21)
    rows = []
    stalled_seen = False
    for decades in (0, 2, 4, 6, 8, 12):
        a = (base if decades == 0
             else base.scale(np.logspace(-decades / 2, decades / 2, n), None))
        f32 = _run(a, "float32")
        f64 = _run(a, "float64")
        rows.append([
            decades, f32[4], f"{f32[3]:.2e}", f"{f64[3]:.2e}",
            f32[1] * 1e3, f32[2] / 1024,
        ])
        stalled_seen = stalled_seen or f32[4] == "stalled"
        if f32[4] == "ok":
            # a converged refined solve meets the float64 accuracy class
            assert f32[3] <= max(1e-12, 100 * f64[3])
    print(format_table(
        ["decades", "outcome", "resid f32", "resid f64",
         "solve ms f32", "data KiB f32"],
        rows, float_fmt="{:.2f}",
    ))
    # well-conditioned inputs must always converge
    assert rows[0][1] == "ok"
    benchmark.pedantic(lambda: _run(base, "float32"), rounds=3, iterations=1)
