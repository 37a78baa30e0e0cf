"""MC64-style matchings: maximum transversal and maximum-product matching
with row/column scaling.

PanguLU (like SuperLU_DIST's static pivoting) runs MC64 before symbolic
factorisation so the numeric phase can factorise without partial pivoting:
a row permutation moves large entries onto the diagonal, and the dual
variables of the optimal matching give scalings ``dr``/``dc`` such that the
scaled, permuted matrix has ones on the diagonal and all other entries at
most 1 in magnitude (Duff & Koster 1999/2001).

Two entry points:

* :func:`maximum_transversal` — structural only (MC21-style augmenting
  paths): a row permutation giving a zero-free diagonal.
* :func:`mc64` — the weighted version (maximise the product of diagonal
  magnitudes) via successive shortest augmenting paths with node
  potentials, returning the permutation and the scaling vectors.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass

import numpy as np

from ..sparse.csc import CSCMatrix

__all__ = ["maximum_transversal", "mc64", "MC64Result", "StructurallySingularError"]


class StructurallySingularError(ValueError):
    """Raised when no zero-free diagonal exists (structural rank < n)."""


def maximum_transversal(a: CSCMatrix) -> np.ndarray:
    """Maximum structural matching (MC21): rows matched to columns.

    Returns ``row_of_col`` where ``row_of_col[j]`` is the row matched to
    column ``j`` (−1 if unmatched).  When the matching is perfect,
    permuting with ``A.permute(row_of_col, None)`` yields a matrix with a
    zero-free diagonal.
    """
    n = a.ncols
    row_of_col = np.full(n, -1, dtype=np.int64)
    col_of_row = np.full(a.nrows, -1, dtype=np.int64)

    # cheap assignment pass
    for j in range(n):
        for r in a.indices[a.col_slice(j)]:
            r = int(r)
            if col_of_row[r] < 0:
                col_of_row[r] = j
                row_of_col[j] = r
                break

    # augmenting-path pass (BFS keeps paths short and the code iterative)
    for j0 in range(n):
        if row_of_col[j0] >= 0:
            continue
        parent: dict[int, int] = {}  # column -> column it was reached from
        visited = {j0}
        frontier = [j0]
        free_row = -1
        end_col = -1
        while frontier and free_row < 0:
            nxt: list[int] = []
            for j in frontier:
                for r in a.indices[a.col_slice(j)]:
                    r = int(r)
                    owner = int(col_of_row[r])
                    if owner < 0:
                        free_row, end_col = r, j
                        break
                    if owner not in visited:
                        visited.add(owner)
                        parent[owner] = j
                        nxt.append(owner)
                if free_row >= 0:
                    break
            frontier = nxt
        if free_row < 0:
            continue  # column stays unmatched (structurally deficient)
        # augment: walk back through parents, flipping matches
        r, j = free_row, end_col
        while True:
            prev_r = int(row_of_col[j])
            row_of_col[j] = r
            col_of_row[r] = j
            if j == j0:
                break
            r = prev_r
            j = parent[j]
    return row_of_col


@dataclass(frozen=True)
class MC64Result:
    """Result of the weighted MC64 matching.

    Attributes
    ----------
    row_perm:
        Row permutation as ``row_of_col``: entry ``(row_perm[j], j)`` of the
        original matrix lands on the diagonal.  Apply with
        ``A.permute(row_perm, None)``.
    row_scale, col_scale:
        Positive scalings for the *original* matrix:
        ``diag(row_scale) @ A @ diag(col_scale)`` has all entries of
        magnitude ≤ 1 (up to float rounding) and exactly 1 at the matched
        positions.
    log_product:
        Maximised ``sum(log |a_{row_perm[j], j}|)`` before scaling.
    """

    row_perm: np.ndarray
    row_scale: np.ndarray
    col_scale: np.ndarray
    log_product: float


def mc64(a: CSCMatrix) -> MC64Result:
    """Maximum-product bipartite matching with scaling (MC64 job 5).

    Minimises ``sum c_ij`` over perfect matchings, where
    ``c_ij = log(colmax_j) − log |a_ij| ≥ 0``, using successive shortest
    augmenting paths on reduced costs (Dijkstra with node potentials —
    the sparse Jonker–Volgenant scheme).  Entries that are stored but
    numerically zero are treated as absent.
    """
    if a.nrows != a.ncols:
        raise ValueError("mc64 requires a square matrix")
    n = a.ncols
    if n == 0:
        return MC64Result(np.zeros(0, np.int64), np.zeros(0), np.zeros(0), 0.0)

    absval = np.abs(a.data)
    cols = np.repeat(np.arange(n, dtype=np.int64), np.diff(a.indptr))
    nz = absval > 0
    has_nz = np.zeros(n, dtype=bool)
    has_nz[cols[nz]] = True
    if not has_nz.all():
        j = int(np.argmin(has_nz))
        raise StructurallySingularError(f"column {j} has no nonzero entries")
    # every column holds a nonzero here, so no reduceat segment is empty
    colmax_log = np.log(np.maximum.reduceat(np.where(nz, absval, 0.0), a.indptr[:-1]))
    cost = colmax_log[cols[nz]] - np.log(absval[nz])

    # the Dijkstra below runs on Python floats and per-column lists of the
    # finite-cost (nonzero) entries: the same IEEE operations as on NumPy
    # scalars, without their per-operation overhead
    ptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(cols[nz], minlength=n), out=ptr[1:])
    ptr_l = ptr.tolist()
    rows_l = a.indices[nz].tolist()
    cost_l = cost.tolist()
    col_rows = [rows_l[ptr_l[j] : ptr_l[j + 1]] for j in range(n)]
    col_costs = [cost_l[ptr_l[j] : ptr_l[j + 1]] for j in range(n)]
    del rows_l, cost_l, cost

    pi_row = [0.0] * n  # node potentials (rows)
    pi_col = [0.0] * n  # node potentials (columns)
    row_of_col = [-1] * n
    col_of_row = [-1] * n

    INF = float("inf")
    for j0 in range(n):
        # Dijkstra over reduced costs from free column j0.
        # Forward arc  j -> r  : w = c_rj + pi_col[j] - pi_row[r]  (>= 0)
        # Matched arc  r -> j' : w = -c_rj' + pi_row[r] - pi_col[j'] = 0
        dist_row: dict[int, float] = {}
        dist_col: dict[int, float] = {j0: 0.0}
        parent_col_of_row: dict[int, int] = {}
        done_rows: set[int] = set()
        heap: list[tuple[float, int]] = []

        def _relax_from_col(j: int, dj: float) -> None:
            pj = pi_col[j]
            for r, c in zip(col_rows[j], col_costs[j]):
                if r in done_rows:
                    continue
                nd = dj + (c + pj - pi_row[r])
                if nd < dist_row.get(r, INF):
                    dist_row[r] = nd
                    parent_col_of_row[r] = j
                    heapq.heappush(heap, (nd, r))

        _relax_from_col(j0, 0.0)
        end_row = -1
        delta = INF
        while heap:
            d, r = heapq.heappop(heap)
            if r in done_rows or d > dist_row.get(r, INF):
                continue
            done_rows.add(r)
            jm = col_of_row[r]
            if jm < 0:
                end_row, delta = r, d
                break
            # matched arc r -> jm has reduced cost 0
            if d < dist_col.get(jm, INF):
                dist_col[jm] = d
                _relax_from_col(jm, d)
        if end_row < 0:
            raise StructurallySingularError(
                "matrix is structurally singular (no perfect matching)"
            )

        # Potential update: pi_x += min(dist_x, delta) - delta.  The -delta
        # normalisation makes the update zero for every unlabeled node
        # (whose true distance is >= delta), so only labeled nodes need
        # touching and feasibility is preserved globally.
        for j, dj in dist_col.items():
            pi_col[j] += min(dj, delta) - delta
        for r, dr in dist_row.items():
            pi_row[r] += min(dr, delta) - delta

        # augment along parent pointers
        r = end_row
        while True:
            j = parent_col_of_row[r]
            prev_r = row_of_col[j]
            row_of_col[j] = r
            col_of_row[r] = j
            if j == j0:
                break
            r = prev_r

    perm = np.asarray(row_of_col, dtype=np.int64)
    # matched entries, one per column (CSC positions sorted by col·n + row)
    pos = np.searchsorted(cols * n + a.indices, np.arange(n, dtype=np.int64) * n + perm)
    # left-to-right running sum over the columns (np.sum would add pairwise)
    log_product = float(np.cumsum(np.log(absval[pos]))[-1])

    # From feasibility c_ij >= pi_row[i] - pi_col[j] (equality on matched):
    # |a_ij| * e^{pi_row[i]} * e^{-pi_col[j]} / colmax_j <= 1.
    row_scale = np.exp(np.asarray(pi_row))
    col_scale = np.exp(-np.asarray(pi_col) - colmax_log)
    return MC64Result(perm, row_scale, col_scale, log_product)
