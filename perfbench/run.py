"""End-to-end benchmark of the PanguLU reproduction.

Run from the root of a checkout::

    python3 perfbench/run.py --workload newton --seed 1 --seconds 20 --trace 0

Human-readable lines go first; the last line of standard output is one
JSON object ``{"correct", "attempted", "failed", "metrics"}``.  With
``--trace 0`` the metrics are the end-to-end ones of ``BENCHMARK.json``;
with ``--trace 1`` they are the per-layer ones, from a run whose second
half carries spans on every layer boundary (written to
``.bench_out/spans-<workload>-<seed>.json``).  See ``README.md`` here.
"""

from __future__ import annotations

import time

T_START = time.perf_counter()

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"


def warm_up() -> None:
    """Import the solver and SciPy and run one tiny solve, so lazy
    imports and first-call costs land in set-up, not in a request."""
    import numpy as np
    import scipy.sparse.linalg as spla

    from repro import PanguLU
    from repro.sparse import grid_laplacian_2d

    a = grid_laplacian_2d(8, 8)
    PanguLU(a).solve(np.ones(a.nrows))
    spla.splu(a.to_scipy().tocsc()).solve(np.ones(a.nrows))


def peak_rss_mb() -> float:
    """Peak resident set of this process."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def provenance(workload: str, seed: int) -> dict:
    """What produced the numbers: source identity, machine, versions."""
    import numpy
    import scipy

    from workloads import COLD_SCALE, MANY_RHS_SCALE, NEWTON_SCALE

    git = "none (not a git checkout)"
    if (ROOT / ".git").exists():
        try:
            sha = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                                 capture_output=True, text=True, timeout=30, check=True)
            dirty = subprocess.run(["git", "-C", str(ROOT), "status", "--porcelain", "src"],
                                   capture_output=True, text=True, timeout=30, check=True)
            git = sha.stdout.strip() + ("-dirty" if dirty.stdout.strip() else "")
        except (OSError, subprocess.SubprocessError):
            git = "unavailable"
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode())
        digest.update(path.read_bytes())
    cpu = platform.processor() or "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    scale = {"cold16": COLD_SCALE, "many_rhs": MANY_RHS_SCALE, "newton": NEWTON_SCALE}[workload]
    return {
        "git": git,
        "src_sha256": digest.hexdigest()[:16],
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "workload": workload,
        "scale": scale,
        "seed": seed,
    }


def fmt(summary: dict, unit: str) -> str:
    values = " ".join(f"{k}={v:.3f}" for k, v in summary.items() if k != "n")
    return f"{values} {unit} (n={summary['n']})"


def report_lines(name: str, run, setup_s: float, rss: float) -> list[str]:
    """Every measured figure that applies to this workload, by name."""
    import metrics

    lines = [f"setup_s = {setup_s:.4f} s (import/warm-up + set-up; {len(run.setup_s)} set-ups)"]
    if name == "cold16":
        lines.append(f"cold_solve_s_geomean = {run.latency_ms_geomean() / 1e3:.4f} s "
                     f"(16 families, n={len(run.parts['cold'])})")
    lines.append(f"splu_ratio_geomean = {run.splu_ratio_geomean():.3f} x")
    lines.append(f"splu.factor_solve_s_geomean = {run.splu_s_geomean():.5f} s")
    lines.append(f"latency_ms_geomean = {run.latency_ms_geomean():.3f} ms "
                 f"({len(run.pangulu)} request kinds)")
    lines.append(f"norm_latency_geomean = {run.norm_latency_geomean():.4f} x probe")
    for part, label in (("cold", "cold_solve_ms"), ("refactor", "refactor_ms"),
                        ("solve", "solve_ms"), ("panel16", "panel16_ms")):
        if run.parts.get(part):
            lines.append(f"{label}: {fmt(metrics.summary(run.parts[part]), 'ms')}")
    lines.append(f"peak_rss_mb = {rss:.1f} MB")
    lines.append(f"kernels.pivots_replaced = {run.pivots_replaced}")
    lines.append(f"failed = {run.gate.failed} of {run.gate.attempted} attempted")
    lines.extend(f"FAILED {r}" for r in run.gate.reasons)
    return lines


def run_workers(args, workloads, metrics):
    """The untraced run: the workload split over worker processes, run one
    after another; returns the merged run, setup_s and peak_rss_mb."""
    run = workloads.Run()
    setups, rss = [], 0.0
    n = workloads.WORKERS[args.workload]
    for i in range(n):
        cmd = [sys.executable, str(Path(__file__).resolve()),
               "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", repr(args.seconds / n), "--worker", str(i)]
        # the workers share the run's 180 s limit; a hung one is killed
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=150 / n, cwd=ROOT)
        if proc.returncode != 0:
            sys.stderr.write(proc.stdout + proc.stderr)
            raise SystemExit(f"perfbench: worker {i} exited with {proc.returncode}")
        part = json.loads(proc.stdout.strip().splitlines()[-1])
        run.merge(part["run"])
        setups.append(part["import_s"] + metrics.median(part["run"]["setup_s"]))
        rss = max(rss, part["peak_rss_mb"])
    return run, metrics.median(setups), rss


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--worker", type=int, default=None, help=argparse.SUPPRESS)
    args = ap.parse_args(argv)

    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no solver sources at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))
    import metrics
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; "
              f"choose from {sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2

    if args.worker is not None or args.trace:
        warm_up()
        import_s = time.perf_counter() - T_START
        out = workloads.measure(args.workload, args.seed, args.seconds,
                                bool(args.trace), part=args.worker)
        run = out["run"]
        if args.worker is not None:
            print(json.dumps({"run": run.to_json(), "import_s": import_s,
                              "peak_rss_mb": peak_rss_mb()}))
            return 0
        setup_s, rss = import_s + metrics.median(run.setup_s), peak_rss_mb()
    else:
        run, setup_s, rss = run_workers(args, workloads, metrics)

    for line in report_lines(args.workload, run, setup_s, rss):
        print(line)
    if args.trace:
        tracer = out["tracer"]
        print(f"{'span':28s} {'calls':>7s} {'total_s':>9s} {'self_s':>9s}")
        for name, row in sorted(tracer.totals().items(), key=lambda kv: -kv[1]["self_s"]):
            print(f"{name:28s} {row['calls']:7d} {row['total_s']:9.4f} {row['self_s']:9.4f}")
        for key, value in out["per_layer"].items():
            print(f"{key} = {value:.6g}")
        dump = ROOT / ".bench_out" / f"spans-{args.workload}-{args.seed}.json"
        dump.parent.mkdir(exist_ok=True)
        dump.write_text(json.dumps({"spans": tracer.to_json(), "totals": tracer.totals(),
                                    "counters": tracer.counters}))
        print(f"spans written to {dump.relative_to(ROOT)}")
    print("provenance " + json.dumps(provenance(args.workload, args.seed)))

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.trace:
        units = {m["name"]: m["unit"] for m in spec["per_layer"]}
        values = out["per_layer"]
    else:
        units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
        values = {
            "setup_s": setup_s,
            "norm_latency_geomean": run.norm_latency_geomean(),
            "peak_rss_mb": rss,
        }
    result = {
        "correct": run.gate.failed == 0,
        "attempted": run.gate.attempted,
        "failed": run.gate.failed,
        "metrics": {k: {"value": float(values[k]), "unit": u} for k, u in units.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
