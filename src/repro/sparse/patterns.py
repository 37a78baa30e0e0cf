"""Structural (pattern-level) utilities shared across the solver phases."""

from __future__ import annotations

import numpy as np

from .csc import CSCMatrix, coo_to_csc

__all__ = [
    "symmetrize_pattern",
    "pattern_union",
    "adjacency_csr",
    "adjacency_lists",
    "gather_ranges",
    "bandwidth",
    "is_structurally_symmetric",
    "has_full_diagonal",
    "ensure_diagonal",
    "structural_rank_lower_bound",
]


def symmetrize_pattern(a: CSCMatrix) -> CSCMatrix:
    """Return the pattern of ``A + A^T`` with values from ``A`` where present.

    PanguLU symmetrises the matrix before its symmetric-pruned symbolic
    factorisation (Section 5.2); entries present only in ``A^T`` get value 0
    so the numeric phase still factorises the original values.
    """
    at = a.transpose()
    rows_a, cols_a = a.rows_cols()
    rows_t, cols_t = at.rows_cols()
    rows = np.concatenate([rows_a, rows_t])
    cols = np.concatenate([cols_a, cols_t])
    vals = np.concatenate([a.data, np.zeros(at.nnz)])
    # summing duplicates keeps A's value where both patterns have the entry
    return coo_to_csc(a.shape, rows, cols, vals)


def pattern_union(a: CSCMatrix, b: CSCMatrix) -> CSCMatrix:
    """Union of two patterns (values: a's where present, else b's)."""
    if a.shape != b.shape:
        raise ValueError(f"shape mismatch {a.shape} vs {b.shape}")
    rows_a, cols_a = a.rows_cols()
    rows_b, cols_b = b.rows_cols()
    # Keep A's values; mark B-only entries by adding B with zero where A has
    # the entry.  Simplest correct approach: union pattern, then fill from A.
    rows = np.concatenate([rows_a, rows_b])
    cols = np.concatenate([cols_a, cols_b])
    vals = np.concatenate([a.data, np.zeros(b.nnz)])
    out = coo_to_csc(a.shape, rows, cols, vals)
    return out


def adjacency_csr(a: CSCMatrix) -> tuple[np.ndarray, np.ndarray]:
    """Undirected adjacency of the symmetrised pattern, excluding self-loops,
    as a CSR pair ``(xadj, adjncy)``: the sorted neighbours of vertex ``v``
    are ``adjncy[xadj[v]:xadj[v + 1]]``."""
    s = symmetrize_pattern(a)
    cols = s.cols_expanded()
    off = s.indices != cols
    xadj = np.zeros(s.ncols + 1, dtype=np.int64)
    np.cumsum(np.bincount(cols[off], minlength=s.ncols), out=xadj[1:])
    return xadj, s.indices[off]


def adjacency_lists(a: CSCMatrix) -> list[np.ndarray]:
    """Undirected adjacency of the symmetrised pattern, excluding self-loops.

    Returns, for each vertex ``v``, a sorted array of neighbours (slices of
    :func:`adjacency_csr`).  Used by the minimum-degree codes (AMD, MD).
    """
    xadj, adjncy = adjacency_csr(a)
    off = xadj.tolist()
    return [adjncy[off[v] : off[v + 1]] for v in range(len(off) - 1)]


def gather_ranges(starts: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """Concatenation of the index ranges ``starts[i] : starts[i] + counts[i]``
    (the positions of a CSR/CSC gather over several rows/columns)."""
    ends = np.cumsum(counts)
    total = int(ends[-1]) if ends.size else 0
    return np.arange(total, dtype=np.int64) + np.repeat(starts - ends + counts, counts)


def bandwidth(a: CSCMatrix) -> int:
    """Maximum distance of any stored entry from the diagonal."""
    if a.nnz == 0:
        return 0
    rows, cols = a.rows_cols()
    return int(np.max(np.abs(rows - cols)))


def is_structurally_symmetric(a: CSCMatrix) -> bool:
    """True when the pattern of ``A`` equals the pattern of ``A^T``."""
    at = a.transpose()
    return (
        np.array_equal(a.indptr, at.indptr)
        and np.array_equal(a.indices, at.indices)
    )


def _missing_diagonal(a: CSCMatrix) -> np.ndarray:
    """Sorted indices ``j < min(shape)`` whose entry ``(j, j)`` is not stored."""
    n = min(a.shape)
    cols = np.repeat(np.arange(a.ncols, dtype=np.int64), np.diff(a.indptr))
    present = np.zeros(n, dtype=bool)
    present[cols[a.indices == cols]] = True
    return np.flatnonzero(~present)


def has_full_diagonal(a: CSCMatrix) -> bool:
    """True when every diagonal position is structurally present."""
    return _missing_diagonal(a).size == 0


def ensure_diagonal(a: CSCMatrix, value: float = 0.0) -> CSCMatrix:
    """Return a copy of ``A`` whose diagonal is structurally present.

    Missing diagonal entries are inserted with ``value``; existing entries
    are untouched.  Static-pivoting LU requires a structurally full diagonal.
    """
    miss = _missing_diagonal(a)
    if not miss.size:
        return a.copy()
    rows_a, cols_a = a.rows_cols()
    rows = np.concatenate([rows_a, miss])
    cols = np.concatenate([cols_a, miss])
    vals = np.concatenate([a.data, np.full(miss.size, value)])
    return coo_to_csc(a.shape, rows, cols, vals)


def structural_rank_lower_bound(a: CSCMatrix) -> int:
    """Greedy matching size — a fast lower bound on the structural rank."""
    matched_rows = np.full(a.nrows, False)
    count = 0
    for j in range(a.ncols):
        rows = a.indices[a.col_slice(j)]
        for r in rows:
            if not matched_rows[r]:
                matched_rows[r] = True
                count += 1
                break
    return count
