#!/usr/bin/env python
"""Quickstart: solve a sparse linear system with PanguLU.

Generates the ecology1 analogue (a 2D grid Laplacian, one of the paper's
16 test matrices), runs the full five-phase pipeline, reports per-phase
times and the solution residual, and then repeats the numeric
factorisation through the engine registry with the real threaded
synchronisation-free executor — recording a Chrome trace of the actual
run (open ``quickstart_trace.json`` in chrome://tracing or Perfetto).

Run:  python examples/quickstart.py [scale]
"""

from __future__ import annotations

import sys

import numpy as np

from repro import PanguLU, SolverOptions
from repro.runtime import available_engines, write_recorder_trace
from repro.sparse import generate


def main() -> None:
    scale = float(sys.argv[1]) if len(sys.argv) > 1 else 0.4
    a = generate("ecology1", scale=scale)
    print(f"matrix: ecology1 analogue, n = {a.nrows}, nnz = {a.nnz}")

    solver = PanguLU(a, SolverOptions(ordering="nd"))
    b = np.ones(a.nrows)
    x = solver.solve(b)
    fact = solver.factorize()

    print(f"relative residual ‖Ax − b‖/‖b‖ = {fact.residual_norm(x, b):.3e}")
    print(f"LU product error               = {fact.lu_product_error():.3e}")
    print("phase times (s):")
    for phase, seconds in solver.phase_seconds.items():
        print(f"  {phase:<12s} {seconds:8.4f}")
    stats = fact.stats
    print(f"tasks executed: {stats.tasks_executed}, "
          f"structural FLOPs: {stats.flops_total:,}")
    print("kernel versions used:",
          dict(sorted(stats.version_histogram().items())))

    # run the numeric phase again, for real, through the engine registry
    # with 4 worker threads, recording scheduler events as we go
    print(f"available engines: {available_engines()}")
    fresh = PanguLU(a, SolverOptions(
        ordering="nd", engine="threaded", n_workers=4, trace_events=True,
    ))
    fresh.factorize()
    lu_seq = solver.blocks.to_csc()
    lu_thr = fresh.blocks.to_csc()
    diff = float(np.abs(lu_seq.to_dense() - lu_thr.to_dense()).max())
    print(f"threaded executor: {fresh.numeric_stats.tasks_executed} tasks on "
          f"4 workers, max |seq − thr| = {diff:.2e}")
    write_recorder_trace("quickstart_trace.json", fresh.recorder)
    print(f"chrome trace of the real threaded run "
          f"({len(fresh.recorder)} events) → quickstart_trace.json")


if __name__ == "__main__":
    main()
