"""Reverse Cuthill–McKee ordering.

A bandwidth-reducing ordering used as a cheap fallback and as a building
block for pseudo-peripheral vertex searches in the nested-dissection code.
"""

from __future__ import annotations

from collections import deque

import numpy as np

from ..sparse.csc import CSCMatrix
from ..sparse.patterns import adjacency_csr, gather_ranges

__all__ = ["rcm", "pseudo_peripheral_vertex", "bfs_levels"]


def bfs_levels(
    adj: tuple[np.ndarray, np.ndarray], start: int, mask: np.ndarray | None = None
) -> tuple[np.ndarray, list[np.ndarray]]:
    """Breadth-first level structure from ``start``.

    ``adj`` is the CSR adjacency ``(xadj, adjncy)`` of
    :func:`~repro.sparse.patterns.adjacency_csr`.  The search is
    level-synchronous: each step gathers every neighbour of the current
    frontier in one array pass and keeps the unseen ones, sorted, as the
    next level.

    Returns ``(level, levels)`` where ``level[v]`` is the BFS depth of ``v``
    (−1 for unreachable / masked-out vertices) and ``levels[d]`` lists the
    vertices at depth ``d`` in increasing order.  ``mask`` restricts the
    traversal to vertices where ``mask[v]`` is True.
    """
    xadj, adjncy = adj
    if mask is not None and not mask[start]:
        raise ValueError("start vertex is masked out")
    level = np.full(xadj.size - 1, -1, dtype=np.int64)
    seen = np.zeros(level.size, dtype=bool) if mask is None else ~mask.astype(bool)
    frontier = np.asarray([start], dtype=np.int64)
    levels = [frontier]
    while frontier.size:
        level[frontier] = len(levels) - 1
        seen[frontier] = True
        starts = xadj[frontier]
        nbrs = adjncy[gather_ranges(starts, xadj[frontier + 1] - starts)]
        frontier = np.unique(nbrs[~seen[nbrs]])
        if frontier.size:
            levels.append(frontier)
    return level, levels


def pseudo_peripheral_vertex(
    adj: tuple[np.ndarray, np.ndarray], start: int, mask: np.ndarray | None = None
) -> tuple[int, list[np.ndarray]]:
    """George–Liu pseudo-peripheral vertex search.

    Repeatedly roots a BFS at a minimum-degree vertex of the deepest level
    until eccentricity stops increasing.  Returns the vertex and its level
    structure.
    """
    degree = np.diff(adj[0])
    v = start
    _, levels = bfs_levels(adj, v, mask)
    ecc = len(levels)
    while True:
        last = levels[-1]
        cand = int(last[int(np.argmin(degree[last]))])
        _, new_levels = bfs_levels(adj, cand, mask)
        if len(new_levels) <= ecc:
            return v, levels
        v, levels, ecc = cand, new_levels, len(new_levels)


def rcm(a: CSCMatrix) -> np.ndarray:
    """Reverse Cuthill–McKee permutation of the symmetrised pattern.

    Returns a "new-from-old" permutation ``p`` such that
    ``A[p][:, p]`` has reduced bandwidth.  Handles disconnected graphs by
    restarting from the lowest-degree unvisited vertex.
    """
    n = a.ncols
    if n == 0:
        return np.zeros(0, dtype=np.int64)
    adj = adjacency_csr(a)
    xadj, adjncy = adj
    degree = np.diff(xadj)
    visited = np.zeros(n, dtype=bool)
    order: list[int] = []
    while len(order) < n:
        unvisited = np.flatnonzero(~visited)
        start = int(unvisited[int(np.argmin(degree[unvisited]))])
        start, _ = pseudo_peripheral_vertex(adj, start, ~visited)
        queue = deque([start])
        visited[start] = True
        while queue:
            v = queue.popleft()
            order.append(v)
            nbrs = adjncy[xadj[v] : xadj[v + 1]]
            nbrs = nbrs[~visited[nbrs]]
            nbrs = nbrs[np.lexsort((nbrs, degree[nbrs]))]
            visited[nbrs] = True
            queue.extend(nbrs.tolist())
    return np.asarray(order[::-1], dtype=np.int64)
