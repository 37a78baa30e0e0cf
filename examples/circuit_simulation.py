#!/usr/bin/env python
"""Circuit simulation workload: repeated solves with a fixed pattern.

Sparse direct solvers in SPICE-class circuit simulators factorise the
same sparsity pattern thousands of times with changing values (Newton
iterations, time steps).  This is the workload the paper's introduction
motivates with KLU/NICSLU/GLU, and the reason PanguLU separates the
(expensive, once) symbolic phase from the (repeated) numeric phase.

This example builds the ASIC_680k analogue — an irregular circuit matrix
with near-dense power rails, the structure on which the paper reports its
largest win (11.70×) — and runs a damped Newton-style loop: each
iteration perturbs the device stamps and calls ``refactorize``, reusing
ordering, fill pattern, blocking, DAG and mapping.

Run:  python examples/circuit_simulation.py
"""

from __future__ import annotations

import time

import numpy as np

import sys

from repro import PanguLU
from repro.sparse import generate


def main() -> None:
    scale = float(sys.argv[1]) if len(sys.argv) > 1 else 0.35
    a = generate("ASIC_680k", scale=scale, seed=1)
    n = a.nrows
    print(f"circuit matrix: n = {n}, nnz = {a.nnz} "
          f"(irregular: max column degree {int(np.diff(a.indptr).max())})")

    solver = PanguLU(a)
    b = np.zeros(n)
    b[0] = 1.0  # current injection at net 0

    t0 = time.perf_counter()
    x = solver.solve(b)
    t_first = time.perf_counter() - t0
    fact = solver.factorize()
    print(f"initial factor+solve: {t_first:.3f} s, "
          f"residual {fact.residual_norm(x, b):.2e}")
    print("  one-time phases: "
          + ", ".join(f"{k}={v:.3f}s" for k, v in solver.phase_seconds.items()))

    rng = np.random.default_rng(0)
    newton_times = []
    for it in range(5):
        # nonlinear device stamps change values, never the pattern
        a_it = a.copy()
        a_it.data = a.data * (1.0 + 0.05 * rng.standard_normal(a.nnz))
        t0 = time.perf_counter()
        fact.refactorize(a_it)
        x = fact.solve(b)
        dt = time.perf_counter() - t0
        newton_times.append(dt)
        print(f"  newton iter {it}: refactorize+solve {dt:.3f} s, "
              f"residual {fact.residual_norm(x, b):.2e}")

    print(f"amortised iteration time {np.mean(newton_times):.3f} s vs "
          f"{t_first:.3f} s cold start — the symbolic/preprocess phases "
          "are paid once, as in SPICE workloads")


if __name__ == "__main__":
    main()
