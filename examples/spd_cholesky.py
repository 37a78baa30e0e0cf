#!/usr/bin/env python
"""SPD systems: block Cholesky vs block LU on the same layout.

For symmetric positive definite matrices (the FEM and grid analogues in
the paper's test set are SPD) the regular 2D layout supports ``A = L·Lᵀ``
at half the storage and FLOPs of LU.  This example factors the audikw_1
analogue both ways, compares work/storage/accuracy, and checks the two
solvers agree.

Run:  python examples/spd_cholesky.py [scale]
"""

from __future__ import annotations

import sys

import numpy as np

from repro import PanguLU
from repro.cholesky import PanguLLt
from repro.core import memory_report
from repro.sparse import generate


def main() -> None:
    scale = float(sys.argv[1]) if len(sys.argv) > 1 else 0.2
    a = generate("audikw_1", scale=scale)
    print(f"matrix: audikw_1 analogue (SPD FEM), n = {a.nrows}, nnz = {a.nnz}")
    b = np.ones(a.nrows)

    chol = PanguLLt(a)
    x_c = chol.solve(b)
    lu = PanguLU(a)
    x_l = lu.solve(b)

    rep_c = memory_report(chol.blocks)
    rep_l = memory_report(lu.blocks)
    print(f"Cholesky: residual {chol.residual_norm(x_c, b):.2e}, "
          f"factor error {chol.factor_error():.2e}, "
          f"{chol.flops:,} Schur FLOPs, {rep_c.total_bytes / 1024:.1f} KiB")
    print(f"LU      : residual {lu.factorize().residual_norm(x_l, b):.2e}, "
          f"{lu.dag.total_flops:,} structural FLOPs, "
          f"{rep_l.total_bytes / 1024:.1f} KiB")
    print(f"LU/Cholesky storage ratio: {rep_l.total_bytes / rep_c.total_bytes:.2f}x "
          "(theory ≈ 2x)")
    print(f"solutions agree to {np.abs(x_c - x_l).max():.2e}")


if __name__ == "__main__":
    main()
