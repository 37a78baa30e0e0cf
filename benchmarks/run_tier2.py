#!/usr/bin/env python
"""Tier-2 micro-benchmark harness — kernel timings to a checked-in JSON.

Standalone (no pytest): times every SSSSM / GESSM / TSTRF kernel variant
plus the planned execution path on three canonical block densities —
``sparse`` (bin-search regime), ``medium`` (crossover), ``filled``
(post-fill blocks where the dense-mapped variants win) — plus a
``tsolve`` row (phase-5 triangular solves through the engine path,
sequential vs threaded, single and 16-RHS panels) and a ``placement``
row (cyclic vs cost-model block ownership on a 2-fast/2-slow simulated
platform) — and writes the results to ``BENCH_kernels.json`` at the
repo root.

The JSON is checked in as a coarse performance trajectory for the
repo: absolute numbers are machine-dependent, but the *ratios* between
variants (and planned vs unplanned) are what reviews look at.

Usage::

    python benchmarks/run_tier2.py            # writes BENCH_kernels.json
    REPRO_BENCH_SCALE=0.5 python benchmarks/run_tier2.py
"""

from __future__ import annotations

import datetime
import json
import os
import platform
import subprocess
import sys
import time
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

import numpy as np  # noqa: E402

from repro.kernels import (  # noqa: E402
    GESSM_VARIANTS,
    GETRF_VARIANTS,
    SSSSM_VARIANTS,
    TSTRF_VARIANTS,
    Workspace,
    build_gessm_plan,
    build_ssssm_plan,
    build_tstrf_plan,
    run_gessm_plan,
    run_ssssm_plan,
    run_tstrf_plan,
)
from repro.sparse import random_sparse  # noqa: E402
from repro.symbolic import symbolic_symmetric  # noqa: E402

SCALE = float(os.environ.get("REPRO_BENCH_SCALE", "0.2"))
#: block order of the cut blocks (paper-scale 256+; python-friendly here)
BLOCK_ORDER = max(32, int(320 * SCALE)) * 2
#: the three canonical density regimes (generator density pre-fill)
DENSITY_REGIMES = {"sparse": 0.008, "medium": 0.02, "filled": 0.06}
REPEATS = 5

WS = Workspace()


def _git_sha() -> str:
    """The current commit (dirty-marked), or ``"unknown"`` outside git —
    the provenance stamp that lets a reviewed JSON be tied to the code
    that produced it."""
    try:
        sha = subprocess.run(
            ["git", "rev-parse", "--short=12", "HEAD"],
            cwd=REPO_ROOT, capture_output=True, text=True, timeout=10,
        ).stdout.strip()
        if not sha:
            return "unknown"
        dirty = subprocess.run(
            ["git", "status", "--porcelain"],
            cwd=REPO_ROOT, capture_output=True, text=True, timeout=10,
        ).stdout.strip()
        return f"{sha}-dirty" if dirty else sha
    except (OSError, subprocess.SubprocessError):
        return "unknown"


def _quad(n: int, density: float, seed: int = 7):
    """diag / top-right / bottom-left / bottom-right blocks of a 2×2 cut
    through real symbolic fill."""
    a = random_sparse(n, density, seed=seed + n)
    f = symbolic_symmetric(a).filled
    h = n // 2
    top, bot = np.arange(h), np.arange(h, n)
    return (
        f.extract_submatrix(top, range(h)),
        f.extract_submatrix(top, range(h, n)),
        f.extract_submatrix(bot, range(h)),
        f.extract_submatrix(bot, range(h, n)),
    )


def _best_ms(fn, repeats: int = REPEATS) -> float:
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best * 1e3


def bench_regime(regime: str, density: float) -> dict:
    d, b, r, c = _quad(BLOCK_ORDER, density)
    dfac = d.copy()
    GETRF_VARIANTS["G_V2"](dfac, WS)

    out: dict = {
        "density": density,
        "block_order": BLOCK_ORDER // 2,
        "nnz": {"diag": d.nnz, "b": b.nnz, "r": r.nnz, "c": c.nnz},
        "SSSSM": {}, "GESSM": {}, "TSTRF": {},
    }
    for version, fn in SSSSM_VARIANTS.items():
        out["SSSSM"][version] = _best_ms(lambda: fn(c.copy(), r, b, WS))
    for version, fn in GESSM_VARIANTS.items():
        out["GESSM"][version] = _best_ms(lambda: fn(dfac, b.copy(), WS))
    for version, fn in TSTRF_VARIANTS.items():
        out["TSTRF"][version] = _best_ms(lambda: fn(dfac, r.copy(), WS))

    plan_s = build_ssssm_plan(c, r, b)
    plan_g = build_gessm_plan(dfac, b)
    plan_t = build_tstrf_plan(dfac, r)
    out["SSSSM"]["planned"] = _best_ms(
        lambda: run_ssssm_plan(plan_s, c.copy(), r, b)
    )
    out["SSSSM"]["plan_build"] = _best_ms(lambda: build_ssssm_plan(c, r, b))
    out["GESSM"]["planned"] = _best_ms(
        lambda: run_gessm_plan(plan_g, dfac, b.copy())
    )
    out["GESSM"]["plan_build"] = _best_ms(lambda: build_gessm_plan(dfac, b))
    out["TSTRF"]["planned"] = _best_ms(
        lambda: run_tstrf_plan(plan_t, dfac, r.copy())
    )
    out["TSTRF"]["plan_build"] = _best_ms(lambda: build_tstrf_plan(dfac, r))
    return out


def bench_tsolve() -> dict:
    """Phase-5 triangular solves through the real engine path:
    sequential vs threaded over the executable solve DAG, vector and
    16-RHS panel (the amortisation the factor-once handle exists for)."""
    from repro.core import block_partition, build_dag, factorize
    from repro.core.tsolve import tsolve_sequential
    from repro.core.tsolve_dag import build_tsolve_dag
    from repro.runtime import tsolve_threaded

    n = max(120, int(600 * SCALE))
    a = random_sparse(n, 0.02, seed=11)
    f = block_partition(symbolic_symmetric(a).filled, max(16, n // 10))
    factorize(f, build_dag(f))
    tdag = build_tsolve_dag(f, lambda bi, bj: 0, executable=True)
    b1 = np.linspace(1.0, 2.0, f.n)
    b16 = np.linspace(1.0, 2.0, f.n * 16).reshape(f.n, 16)
    x_seq, _ = tsolve_sequential(f, b1, tdag=tdag)
    x_thr, _ = tsolve_threaded(f, tdag, b1, n_workers=4)
    assert np.array_equal(x_seq, x_thr)
    return {
        "n": n,
        "tasks": len(tdag),
        "sequential": _best_ms(lambda: tsolve_sequential(f, b1, tdag=tdag)),
        "threaded_x4": _best_ms(
            lambda: tsolve_threaded(f, tdag, b1, n_workers=4)
        ),
        "sequential_rhs16": _best_ms(
            lambda: tsolve_sequential(f, b16, tdag=tdag)
        ),
        "dag_build": _best_ms(
            lambda: build_tsolve_dag(f, lambda bi, bj: 0, executable=True)
        ),
    }


def bench_arena() -> dict:
    """Arena factor storage (Section 4.2 preallocation): partition cost,
    steady-state refactorize latency (in-place slab refill), and the
    pickled handle size."""
    import pickle

    from repro import PanguLU
    from repro.core import block_partition, memory_report

    n = max(120, int(600 * SCALE))
    a = random_sparse(n, 0.02, seed=13)
    a2 = a.copy()
    a2.data = a.data * 1.1
    fact = PanguLU(a).factorize()
    rep = memory_report(fact.blocks)
    fact.refactorize(a2)  # warm the plan cache before timing
    bs = fact.blocks.bs
    f = symbolic_symmetric(a).filled
    return {
        "n": n,
        "factor_bytes": rep.total_bytes,
        "layer1_overhead": rep.layer1_overhead,
        "refactorize_ms": _best_ms(lambda: fact.refactorize(a2)),
        "pickle_bytes": len(pickle.dumps(fact)),
        "partition_ms": _best_ms(lambda: block_partition(f, bs)),
    }


def bench_precision() -> dict:
    """Float32 vs float64 factor path: arena value-slab bytes (the
    storage the mixed-precision build halves), factorise and refined
    solve latency, and the achieved relative residual — the refined
    float32 answer must land in the float64 accuracy class."""
    from repro import PanguLU, SolverOptions

    n = max(120, int(600 * SCALE))
    a = random_sparse(n, 0.02, seed=17)
    b = np.linspace(1.0, 2.0, n)
    out: dict = {"n": n}
    for label, dtype in (("float64", "float64"), ("float32", "float32")):
        solver = PanguLU(a, SolverOptions(factor_dtype=dtype))
        fact = solver.factorize()
        x = fact.solve(b)
        out[label] = {
            "arena_data_bytes": fact.blocks.arena.data.nbytes,
            "factorize_ms": _best_ms(
                lambda: PanguLU(
                    a, SolverOptions(factor_dtype=dtype)
                ).factorize()
            ),
            "solve_ms": _best_ms(lambda: fact.solve(b)),
            "residual": fact.residual_norm(x, b),
        }
    assert out["float32"]["arena_data_bytes"] * 2 == \
        out["float64"]["arena_data_bytes"]
    return out


def bench_blocking() -> dict:
    """Regular grid vs supernode-guided irregular blocking on a skewed
    saddle-point structure: the partition's work profile (dense-mapped
    "padded" FLOPs and their ratio to structural FLOPs), the
    flop-weighted imbalance of the static block-cyclic assignment, and
    the end-to-end factorise latency."""
    from repro import PanguLU, SolverOptions
    from repro.core import (
        ProcessGrid,
        assign_tasks,
        build_dag,
        get_blocking_strategy,
        load_imbalance,
        task_weights,
    )
    from repro.runtime import partition_flop_stats
    from repro.sparse.generators import kkt_saddle_point

    m = max(120, int(400 * SCALE * 5))
    a = kkt_saddle_point(m, seed=3)
    filled = symbolic_symmetric(a).filled
    out: dict = {"n": filled.ncols, "nprocs": 4}
    for blocking in ("regular", "irregular"):
        blocks = get_blocking_strategy(blocking).partition(filled)
        dag = build_dag(blocks)
        stats = partition_flop_stats(blocks, dag)
        weights = task_weights(dag, blocks)
        cyclic = assign_tasks(dag, ProcessGrid.square(4))
        out[blocking] = {
            "grid": stats["grid"],
            "tasks": stats["tasks"],
            "dense_flops": stats["dense_flops"],
            "padding_ratio": stats["padding_ratio"],
            "imbalance": load_imbalance(dag, cyclic, 4, weights=weights),
            "factorize_ms": _best_ms(
                lambda: PanguLU(
                    a, SolverOptions(blocking=blocking)
                ).factorize(),
                repeats=3,
            ),
        }
    assert out["irregular"]["dense_flops"] < out["regular"]["dense_flops"]
    assert out["irregular"]["imbalance"] < out["regular"]["imbalance"]
    return out


def bench_placement() -> dict:
    """Cyclic vs cost-model placement on a 2-fast/2-slow simulated
    platform (2.5× speed skew): simulated numeric-phase makespan and
    the speed-scaled load imbalance.  The cost-model map must win on
    both — the heterogeneous-mapping claim the placement layer exists
    for (Tzovas et al.)."""
    import dataclasses

    from repro.core import block_partition, build_dag, load_imbalance, task_weights
    from repro.core.placement import resolve_placement
    from repro.runtime import CPU_PLATFORM, simulate_pangulu

    n = max(150, int(750 * SCALE))
    speeds = (1.0, 1.0, 0.4, 0.4)
    a = random_sparse(n, 0.02, seed=19)
    blocks = block_partition(symbolic_symmetric(a).filled, max(16, n // 10))
    dag = build_dag(blocks)
    hetero = dataclasses.replace(CPU_PLATFORM, rank_speeds=speeds)
    weights = task_weights(dag, blocks)
    out: dict = {
        "n": n,
        "nprocs": len(speeds),
        "rank_speeds": list(speeds),
        "tasks": len(dag.tasks),
    }
    for name in ("cyclic", "cost"):
        sim = simulate_pangulu(blocks, dag, hetero, len(speeds), placement=name)
        place = resolve_placement(name, len(speeds), speeds=speeds)
        static = place.prepare(dag, blocks).assign(dag)
        out[name] = {
            "makespan_ms": sim.result.makespan * 1e3,
            "gflops": sim.gflops,
            "imbalance": load_imbalance(
                dag, static, len(speeds), weights=weights, speeds=speeds
            ),
        }
    assert out["cost"]["makespan_ms"] < out["cyclic"]["makespan_ms"]
    assert out["cost"]["imbalance"] < out["cyclic"]["imbalance"]
    return out


def bench_compression() -> dict:
    """Compressed low-rank blocks on vs off in the filled regime: block
    count and U/V payload of the overlay, factorise latency, the
    loopback wire bytes of a 3-rank distributed run, and the refined
    residual (the accuracy gate compression must not break)."""
    import scipy.sparse as sp

    from repro import PanguLU, SolverOptions
    from repro.core import block_partition, build_dag
    from repro.core.numeric import NumericOptions
    from repro.runtime import LoopbackTransport, factorize_distributed
    from repro.sparse import CSCMatrix

    n = max(192, int(960 * SCALE))
    bs = 32
    n -= n % bs
    rng = np.random.default_rng(11)
    u, v = rng.standard_normal((n, 2)), rng.standard_normal((n, 2))
    dense = 0.05 * (u @ v.T)
    for k in range(n // bs):
        s = slice(k * bs, (k + 1) * bs)
        dense[s, s] = rng.standard_normal((bs, bs)) + 6.0 * np.eye(bs)
    m = sp.csc_matrix(dense)
    am = CSCMatrix(
        (n, n), m.indptr.astype(np.int64), m.indices.astype(np.int64), m.data
    )
    b = np.linspace(1.0, 2.0, n)

    out: dict = {"n": n, "block_size": bs, "compress_tol": 1e-8}
    for label, tol in (("off", 0.0), ("on", 1e-8)):
        solver = PanguLU(am, SolverOptions(
            block_size=bs,
            numeric=NumericOptions(compress_tol=tol, compress_min_order=16),
        ))
        solver.preprocess()
        t0 = time.perf_counter()
        fact = solver.factorize()
        ms = (time.perf_counter() - t0) * 1e3
        x = fact.solve(b)
        filled = symbolic_symmetric(am).filled
        bm = block_partition(filled, bs)
        dstats = factorize_distributed(
            bm, build_dag(bm), 3, transport=LoopbackTransport(),
            options=NumericOptions(compress_tol=tol, compress_min_order=16),
        )
        out[label] = {
            "factorize_ms": ms,
            "blocks_compressed": fact.stats.blocks_compressed,
            "lr_value_bytes": fact.stats.lr_value_bytes,
            "wire_bytes_3ranks": dstats.block_bytes_sent,
            "residual": float(fact.residual_norm(x, b)),
        }
    assert out["on"]["blocks_compressed"] > 0
    assert out["on"]["wire_bytes_3ranks"] < out["off"]["wire_bytes_3ranks"]
    assert out["on"]["residual"] <= 1e-11
    return out


def main() -> None:
    results = {
        regime: bench_regime(regime, density)
        for regime, density in DENSITY_REGIMES.items()
    }
    tsolve = bench_tsolve()
    arena = bench_arena()
    precision = bench_precision()
    blocking = bench_blocking()
    placement = bench_placement()
    compression = bench_compression()
    doc = {
        "schema": "repro-bench-kernels/2",
        "units": "milliseconds (best of %d)" % REPEATS,
        "scale": SCALE,
        "python": platform.python_version(),
        "numpy": np.__version__,
        # provenance stamp: which code, when, on which matrix set
        "git_sha": _git_sha(),
        "timestamp": datetime.datetime.now(datetime.timezone.utc)
        .isoformat(timespec="seconds"),
        "matrix_set": {
            "regimes": {
                name: {
                    "generator": "random_sparse+symbolic_fill",
                    "order": BLOCK_ORDER,
                    "density": density,
                }
                for name, density in DENSITY_REGIMES.items()
            },
            "compression": "rank-2 block-coupled dense (filled regime)",
        },
        "regimes": results,
        "tsolve": tsolve,
        "arena": arena,
        "precision": precision,
        "blocking": blocking,
        "placement": placement,
        "compression": compression,
    }
    out_path = REPO_ROOT / "BENCH_kernels.json"
    out_path.write_text(json.dumps(doc, indent=2) + "\n")

    width = max(len(v) for fam in ("SSSSM", "GESSM", "TSTRF")
                for v in results["sparse"][fam])
    print(f"block order {BLOCK_ORDER // 2}, regimes "
          f"{ {k: v['density'] for k, v in results.items()} }")
    for fam in ("SSSSM", "GESSM", "TSTRF"):
        print(f"\n{fam} (ms):")
        for version in results["sparse"][fam]:
            row = "  ".join(
                f"{results[r][fam][version]:8.3f}" for r in results
            )
            print(f"  {version:<{width}}  {row}")
    t_keys = ("sequential", "threaded_x4", "sequential_rhs16", "dag_build")
    t_width = max(len(k) for k in t_keys)
    print(f"\nTSOLVE (ms, n={tsolve['n']}, {tsolve['tasks']} tasks):")
    for key in t_keys:
        print(f"  {key:<{t_width}}  {tsolve[key]:8.3f}")
    print(f"\nARENA (n={arena['n']}):")
    print(f"  refactorize {arena['refactorize_ms']:8.3f} ms  "
          f"factor {arena['factor_bytes'] / 1024:8.1f} KiB  "
          f"pickle {arena['pickle_bytes'] / 1024:8.1f} KiB  "
          f"partition {arena['partition_ms']:.3f} ms")
    print(f"\nPRECISION f32 vs f64 (n={precision['n']}):")
    for label in ("float64", "float32"):
        row = precision[label]
        print(f"  {label}  data {row['arena_data_bytes'] / 1024:8.1f} KiB  "
              f"factorize {row['factorize_ms']:8.3f} ms  "
              f"solve {row['solve_ms']:8.3f} ms  "
              f"residual {row['residual']:.2e}")
    print(f"\nBLOCKING regular vs irregular (n={blocking['n']}, "
          f"{blocking['nprocs']} procs):")
    for label in ("regular", "irregular"):
        row = blocking[label]
        print(f"  {label:<9}  nb {row['grid']:3d}  tasks {row['tasks']:5d}  "
              f"padded {row['dense_flops'] / 1e6:8.2f} MFLOP  "
              f"pad ratio {row['padding_ratio']:.2f}  "
              f"imbalance {row['imbalance']:.3f}  "
              f"factorize {row['factorize_ms']:8.3f} ms")
    print(f"\nPLACEMENT cyclic vs cost (n={placement['n']}, "
          f"{placement['nprocs']} ranks at speeds "
          f"{placement['rank_speeds']}):")
    for label in ("cyclic", "cost"):
        row = placement[label]
        print(f"  {label:<7}  makespan {row['makespan_ms']:8.3f} ms  "
              f"{row['gflops']:8.3f} GFLOP/s  "
              f"imbalance {row['imbalance']:.3f}")
    print(f"\nCOMPRESSION off vs on (n={compression['n']}, "
          f"tol={compression['compress_tol']:.0e}):")
    for label in ("off", "on"):
        row = compression[label]
        print(f"  {label:<4}  factorize {row['factorize_ms']:8.3f} ms  "
              f"{row['blocks_compressed']:4d} blocks  "
              f"wire {row['wire_bytes_3ranks'] / 1024:8.1f} KiB  "
              f"residual {row['residual']:.2e}")
    print(f"\nwrote {out_path}  (commit {doc['git_sha']}, "
          f"{doc['timestamp']})")


if __name__ == "__main__":
    main()
