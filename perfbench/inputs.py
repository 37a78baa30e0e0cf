"""Seeded inputs.  The workload seed alone drives every random choice:
the generator seed of each matrix, the Newton value perturbations and
the right-hand-side streams, each from its own
``numpy.random.SeedSequence`` branch so adding a draw to one stream
never shifts another."""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

#: branch ids under the workload seed
MATRIX, PERTURB, RHS = 0, 1, 2
#: relative amplitude of the multiplicative Newton perturbation; values
#: are scaled by a factor in [0.9, 1.1], so no entry changes sign or
#: vanishes and the sparsity pattern is kept exactly
PERTURB_AMPLITUDE = 0.1


def matrix_seed(seed: int, k: int) -> int:
    """Generator seed of the ``k``-th matrix of a workload."""
    return int(np.random.SeedSequence([seed, MATRIX, k]).generate_state(1)[0])


def stream(seed: int, branch: int, k: int) -> np.random.Generator:
    """Random stream ``branch`` (:data:`PERTURB` or :data:`RHS`) of the
    ``k``-th matrix of a workload."""
    return np.random.default_rng(np.random.SeedSequence([seed, branch, k]))


def perturb(a, rng: np.random.Generator):
    """``a`` with every value scaled by ``1 + PERTURB_AMPLITUDE·u``,
    ``u ~ U(-1, 1)``: a Newton step's new Jacobian on the same pattern."""
    from repro.sparse.csc import CSCMatrix

    factors = 1.0 + PERTURB_AMPLITUDE * rng.uniform(-1.0, 1.0, a.nnz)
    return CSCMatrix(a.shape, a.indptr, a.indices, a.data * factors, check=False)


def to_scipy(a) -> sp.csc_matrix:
    """SciPy view of a ``CSCMatrix`` (for splu and the residual checks)."""
    return sp.csc_matrix((a.data, a.indices, a.indptr), shape=a.shape)
