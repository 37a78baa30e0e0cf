"""repro — a from-scratch reproduction of PanguLU (SC '23).

PanguLU is a distributed sparse direct solver built on regular 2D
block-cyclic layout, block-wise *sparse* BLAS with decision-tree kernel
selection, and synchronisation-free scheduling.  This package implements
the solver and every substrate it depends on in pure Python/NumPy/SciPy:

* :mod:`repro.sparse`   — CSC containers, Matrix Market I/O, synthetic
  analogues of the paper's 16 SuiteSparse matrices;
* :mod:`repro.ordering` — MC64 matchings/scaling, AMD, nested dissection;
* :mod:`repro.symbolic` — elimination trees, symmetric-pruned fill,
  Gilbert–Peierls fill;
* :mod:`repro.kernels`  — the 17 sparse kernel variants of Table 1 plus
  the Fig. 8 decision-tree selector;
* :mod:`repro.core`     — blocking, mapping/load-balancing, the task DAG,
  the numeric driver, triangular solves, and the :class:`PanguLU` facade;
* :mod:`repro.runtime`  — calibrated A100/MI50 platform models, the
  discrete-event distributed simulator, and a real threaded
  synchronisation-free executor;
* :mod:`repro.baseline` — a SuperLU_DIST-role supernodal dense-panel
  solver used as the comparator in every experiment;
* :mod:`repro.analysis` — experiment aggregation helpers.

Quickstart::

    import numpy as np
    from repro import PanguLU
    from repro.sparse import generate

    a = generate("ecology1", scale=0.3)
    solver = PanguLU(a)
    x = solver.solve(np.ones(a.nrows))
    assert solver.factorize().residual_norm(x, np.ones(a.nrows)) < 1e-10
"""

from .core.solver import Factorization, PanguLU, RefinementStalled, SolverOptions

__version__ = "1.0.0"

__all__ = [
    "Factorization",
    "PanguLU",
    "RefinementStalled",
    "SolverOptions",
    "__version__",
]
