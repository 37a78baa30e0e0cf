"""Elimination tree computation (Liu's algorithm) and related traversals.

The elimination tree of a (symmetrised) sparse matrix drives both symbolic
factorisation paths in this reproduction: PanguLU's symmetric-pruned fill
merges each column's structure into its etree parent, and the supernodal
baseline uses the etree's postorder to detect supernodes.
"""

from __future__ import annotations

import numpy as np

from ..sparse.csc import CSCMatrix
from ..sparse.patterns import symmetrize_pattern

__all__ = ["elimination_tree", "postorder", "tree_levels", "column_counts"]


def elimination_tree(a: CSCMatrix, *, symmetrize: bool = True) -> np.ndarray:
    """Elimination tree of the pattern of ``A`` (or ``A + A^T``).

    Returns ``parent`` where ``parent[j]`` is the etree parent of column
    ``j`` (−1 for roots).  Uses Liu's algorithm with path compression
    (virtual ancestors), O(nnz · α(n)).
    """
    s = symmetrize_pattern(a) if symmetrize else a
    n = s.ncols
    indptr = s.indptr.tolist()
    indices = s.indices.tolist()
    parent = [-1] * n
    ancestor = [-1] * n
    for j in range(n):
        for i in indices[indptr[j] : indptr[j + 1]]:
            if i >= j:
                break  # rows are sorted: the strict-upper part is done
            # climb from i to the root of its current subtree, compressing
            while True:
                anc = ancestor[i]
                ancestor[i] = j
                if anc < 0:
                    # a subtree root has no parent yet (both are set together)
                    parent[i] = j
                    break
                if anc == j:
                    break
                i = anc
    return np.asarray(parent, dtype=np.int64)


def postorder(parent: np.ndarray) -> np.ndarray:
    """Postorder permutation of a forest given parent pointers.

    Returns ``post`` such that ``post[k]`` is the k-th vertex in postorder
    (children before parents; the forest roots appear last within their
    trees).
    """
    n = parent.size
    # build children lists (in increasing vertex order for determinism)
    first_child = np.full(n, -1, dtype=np.int64)
    next_sibling = np.full(n, -1, dtype=np.int64)
    for v in range(n - 1, -1, -1):
        p = int(parent[v])
        if p >= 0:
            next_sibling[v] = first_child[p]
            first_child[p] = v
    post = np.empty(n, dtype=np.int64)
    k = 0
    for root in range(n):
        if parent[root] >= 0:
            continue
        # iterative DFS
        stack = [root]
        while stack:
            v = stack[-1]
            c = int(first_child[v])
            if c >= 0:
                stack.append(c)
                first_child[v] = next_sibling[c]  # consume child
            else:
                post[k] = stack.pop()
                k += 1
    if k != n:
        raise ValueError("parent array does not describe a forest")
    return post


def tree_levels(parent: np.ndarray) -> np.ndarray:
    """Depth of every vertex in the forest (roots have depth 0)."""
    n = parent.size
    depth = np.full(n, -1, dtype=np.int64)
    for v in range(n):
        # climb until a vertex with a known depth or a root
        path = []
        i = v
        while i >= 0 and depth[i] < 0:
            path.append(i)
            i = int(parent[i])
        base = 0 if i < 0 else int(depth[i]) + 1
        for off, u in enumerate(reversed(path)):
            depth[u] = base + off
    return depth


def column_counts(a: CSCMatrix, parent: np.ndarray) -> np.ndarray:
    """Nonzero count of each column of the Cholesky factor ``L`` of the
    symmetrised pattern (including the diagonal).

    Computed by the row-subtree marking pass — the same walk that builds
    the fill pattern, counting instead of collecting.
    """
    s = symmetrize_pattern(a)
    n = s.ncols
    counts = np.ones(n, dtype=np.int64)  # diagonal
    mark = np.full(n, -1, dtype=np.int64)
    for i in range(n):
        mark[i] = i
        rows = s.indices[s.col_slice(i)]
        for r in rows[rows < i]:
            j = int(r)
            while mark[j] != i:
                mark[j] = i
                counts[j] += 1  # L[i, j] is a nonzero of column j
                j = int(parent[j])
                if j < 0:  # pragma: no cover - broken etree safety
                    break
    return counts
