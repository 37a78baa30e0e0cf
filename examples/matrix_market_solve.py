#!/usr/bin/env python
"""Solve ``A x = b`` for a Matrix Market file — PanguLU's artifact workflow.

The original PanguLU distribution accepts ``.mtx`` files downloaded from
the SuiteSparse collection.  This example does the same: point it at any
real/integer/pattern Matrix Market file (optionally gzipped) and it runs
the full pipeline against a right-hand side of ones, comparing PanguLU
with the supernodal baseline.

With no argument it writes the CoupCons3D analogue to a temporary file
first, so the example is runnable offline.

Run:  python examples/matrix_market_solve.py [path/to/matrix.mtx]
"""

from __future__ import annotations

import sys
import tempfile
from pathlib import Path

import numpy as np

from repro import PanguLU
from repro.baseline import SuperLUBaseline
from repro.sparse import generate, read_matrix_market, write_matrix_market


def main() -> None:
    if len(sys.argv) > 1:
        path = Path(sys.argv[1])
    else:
        path = Path(tempfile.gettempdir()) / "coupcons3d_analogue.mtx"
        write_matrix_market(path, generate("CoupCons3D", scale=0.2),
                            comment="CoupCons3D analogue (repro demo)")
        print(f"no input given — wrote demo matrix to {path}")

    a = read_matrix_market(path)
    print(f"loaded {path.name}: {a.nrows}×{a.ncols}, nnz = {a.nnz}")
    if a.nrows != a.ncols:
        raise SystemExit("need a square matrix")

    b = np.ones(a.nrows)
    for label, solver_cls in (("PanguLU", PanguLU), ("baseline", SuperLUBaseline)):
        solver = solver_cls(a)
        x = solver.solve(b)
        total = sum(solver.phase_seconds.values())
        resid = float(np.linalg.norm(a.matvec(x) - b) / np.linalg.norm(b))
        print(f"{label:>9s}: residual {resid:.2e}, "
              f"total {total:.3f} s "
              f"(numeric {solver.phase_seconds['numeric']:.3f} s, "
              f"symbolic {solver.phase_seconds['symbolic']:.3f} s)")


if __name__ == "__main__":
    main()
