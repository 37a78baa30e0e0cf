"""Symbolic factorisation — fill-pattern computation.

Two paths, mirroring the two solvers under test:

* :func:`symbolic_symmetric` — PanguLU's path (Section 4.1/5.2): symmetrise
  the pattern and compute the exact Cholesky-style fill of ``A + A^T`` by
  one pass over the columns, merging each column's strict-lower rows with
  the structures of its elimination-tree children.  This *is* the
  symmetric-pruning formulation: a child's structure is reused whole by
  its parent, which is exactly what Eisenstat–Liu symmetric pruning
  achieves for symmetric structures — no redundant reachability searches.

* :func:`symbolic_gilbert_peierls` (in :mod:`repro.symbolic.gp`) — the
  unsymmetric column-DFS fill used by the SuperLU_DIST-like baseline.

The result carries the filled pattern ``F = pattern(L) ∪ pattern(U)`` as a
:class:`~repro.sparse.csc.CSCMatrix` whose values hold the entries of the
input ``A`` (zeros at fill positions), ready for regular 2D blocking.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..sparse.csc import CSCMatrix
from ..sparse.patterns import symmetrize_pattern
from .etree import elimination_tree

__all__ = ["SymbolicResult", "symbolic_symmetric", "fill_in_values"]


@dataclass(frozen=True)
class SymbolicResult:
    """Outcome of a symbolic factorisation.

    Attributes
    ----------
    filled:
        Pattern of ``L + U`` (diagonal included once) with the numeric
        values of the input matrix injected; fill-in positions hold 0.
    etree:
        Elimination-tree parent array of the symmetrised pattern.
    nnz_l, nnz_u:
        Nonzeros of the strict lower / upper triangles plus the diagonal
        counted in both (matching the paper's ``nnz(L+U)`` convention where
        ``L`` is unit-lower and ``U`` carries the diagonal).
    """

    filled: CSCMatrix
    etree: np.ndarray
    nnz_l: int
    nnz_u: int

    @property
    def nnz_lu(self) -> int:
        """Total ``nnz(L) + nnz(U)`` with ``L`` unit-diagonal implicit."""
        return self.nnz_l + self.nnz_u

    @property
    def fill_ratio(self) -> float:
        """``nnz(filled) / nnz`` of the original pattern (≥ 1)."""
        base = int(np.count_nonzero(self.filled.data)) or 1
        return self.filled.nnz / base


def symbolic_symmetric(a: CSCMatrix) -> SymbolicResult:
    """Exact fill pattern of the symmetrised matrix (PanguLU's symbolic).

    Columns are visited in increasing order (children before parents in
    the elimination tree).  The strict-lower structure of column ``j`` of
    ``L`` is the union of the strict-lower rows of column ``j`` of
    ``A + A^T`` and the structures of its etree children, less ``j``
    itself; ``U``'s pattern is the transpose.  Complexity O(|L| log |L|)
    after the etree.
    """
    if a.nrows != a.ncols:
        raise ValueError("symbolic factorisation requires a square matrix")
    n = a.ncols
    s = symmetrize_pattern(a)
    parent = elimination_tree(s, symmetrize=False)

    children: list[list[int]] = [[] for _ in range(n)]
    for c, p in enumerate(parent.tolist()):
        if p >= 0:
            children[p].append(c)
    below = s.indices > s.cols_expanded()
    own_rows = s.indices[below]
    own_ptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(s.cols_expanded()[below], minlength=n), out=own_ptr[1:])
    own_ptr = own_ptr.tolist()
    struct: list[np.ndarray] = []
    for j in range(n):
        own = own_rows[own_ptr[j] : own_ptr[j + 1]]
        if children[j]:
            # a child's structure starts with its parent j; drop it
            own = np.unique(np.concatenate([own] + [struct[c][1:] for c in children[j]]))
        struct.append(own)
    counts = np.fromiter(map(len, struct), dtype=np.int64, count=n)
    lower_rows = np.concatenate(struct) if n else np.zeros(0, dtype=np.int64)
    del struct
    lower_cols = np.repeat(np.arange(n, dtype=np.int64), counts)

    # full pattern = strict lower + its transpose + diagonal, sorted by
    # (column, row) through one sort of the col·n + row keys
    diag = np.arange(n, dtype=np.int64)
    keys = np.concatenate(
        [lower_cols * n + lower_rows, lower_rows * n + lower_cols, diag * (n + 1)]
    )
    keys.sort()
    indptr = np.searchsorted(keys, np.arange(n + 1, dtype=np.int64) * n)
    pattern = CSCMatrix((n, n), indptr, keys % n, check=False)
    del keys
    filled = fill_in_values(pattern, a)
    nnz_strict = int(lower_rows.size)
    return SymbolicResult(
        filled=filled,
        etree=parent,
        nnz_l=nnz_strict + n,
        nnz_u=nnz_strict + n,
    )


def _entry_keys(m: CSCMatrix) -> np.ndarray:
    """``col · nrows + row`` of every stored entry (increasing for CSC)."""
    starts = np.arange(m.ncols, dtype=np.int64) * m.nrows
    return np.repeat(starts, np.diff(m.indptr)) + m.indices


def fill_in_values(pattern: CSCMatrix, a: CSCMatrix) -> CSCMatrix:
    """Inject the values of ``a`` into (a superset) ``pattern``.

    Every stored entry of ``a`` must exist in ``pattern``; fill positions
    keep value 0.  Returns a new matrix with a copy of ``pattern``'s
    structure; one ``searchsorted`` of ``a``'s entry keys into the
    pattern's places every value.
    """
    if pattern.shape != a.shape:
        raise ValueError("shape mismatch")
    out = pattern.pattern_copy()
    keys_p = _entry_keys(out)
    keys_a = _entry_keys(a)
    pos = np.searchsorted(keys_p, keys_a)
    # a -1 sentinel past the end: no key matches it
    covered = np.append(keys_p, -1)[pos] == keys_a
    if not covered.all():
        j = int(keys_a[int(np.argmin(covered))] // a.nrows)
        raise ValueError(f"pattern does not cover column {j} of the input")
    out.data[pos] = a.data
    return out
