"""Reference implementations of the analysis pipeline, kept for testing.

These are the straightforward per-vertex / per-column / per-pair loops the
vectorised analysis code in ``src/repro`` replaced.  They are slow but easy
to audit, and every output of the fast code must equal theirs exactly
(same values, same dtypes): permutations, MC64 scalings, elimination tree,
filled pattern and values, block partition slabs, and the task DAG.
"""

from __future__ import annotations

import heapq
from types import SimpleNamespace

import numpy as np

from repro.core.blocking import (
    BlockMatrix,
    FactorArena,
    _validate_boundaries,
    boundaries_from_block_size,
)
from repro.core.dag import Task, TaskDAG, TaskType
from repro.kernels.flops import gessm_flops_from_counts, tstrf_flops_from_counts
from repro.ordering.amd import amd
from repro.ordering.mc64 import MC64Result, StructurallySingularError
from repro.ordering.nd import _pick_separator
from repro.sparse.csc import CSCMatrix, coo_to_csc
from repro.sparse.patterns import symmetrize_pattern
from repro.symbolic import SymbolicResult

# ----------------------------------------------------------------------
# ordering
# ----------------------------------------------------------------------


def adjacency_lists(a: CSCMatrix) -> list[np.ndarray]:
    """Per-vertex sorted neighbours of the symmetrised pattern (no loops)."""
    s = symmetrize_pattern(a)
    out: list[np.ndarray] = []
    for j in range(s.ncols):
        rows, _ = s.col(j)
        out.append(rows[rows != j].copy())
    return out


def bfs_levels(adj, start, mask=None):
    """Per-vertex BFS level structure over adjacency lists."""
    n = len(adj)
    level = np.full(n, -1, dtype=np.int64)
    if mask is not None and not mask[start]:
        raise ValueError("start vertex is masked out")
    level[start] = 0
    frontier = [start]
    levels = [np.asarray([start], dtype=np.int64)]
    while frontier:
        nxt: list[int] = []
        for v in frontier:
            for w in adj[v]:
                w = int(w)
                if level[w] < 0 and (mask is None or mask[w]):
                    level[w] = level[v] + 1
                    nxt.append(w)
        if nxt:
            levels.append(np.asarray(sorted(nxt), dtype=np.int64))
        frontier = nxt
    return level, levels


def pseudo_peripheral_vertex(adj, start, mask=None):
    v = start
    _, levels = bfs_levels(adj, v, mask)
    ecc = len(levels)
    while True:
        last = levels[-1]
        degs = [len(adj[int(u)]) for u in last]
        cand = int(last[int(np.argmin(degs))])
        _, new_levels = bfs_levels(adj, cand, mask)
        if len(new_levels) <= ecc:
            return v, levels
        v, levels, ecc = cand, new_levels, len(new_levels)


def rcm(a: CSCMatrix) -> np.ndarray:
    n = a.ncols
    if n == 0:
        return np.zeros(0, dtype=np.int64)
    adj = adjacency_lists(a)
    degree = np.asarray([len(x) for x in adj])
    visited = np.zeros(n, dtype=bool)
    order: list[int] = []
    while len(order) < n:
        unvisited = np.flatnonzero(~visited)
        start = int(unvisited[int(np.argmin(degree[unvisited]))])
        start, _ = pseudo_peripheral_vertex(adj, start, ~visited)
        queue = [start]
        visited[start] = True
        while queue:
            v = queue.pop(0)
            order.append(v)
            nbrs = [int(w) for w in adj[v] if not visited[w]]
            nbrs.sort(key=lambda w: (degree[w], w))
            for w in nbrs:
                visited[w] = True
            queue.extend(nbrs)
    return np.asarray(order[::-1], dtype=np.int64)


def subgraph_matrix(adj, vertices: np.ndarray) -> CSCMatrix:
    pos = {int(v): i for i, v in enumerate(vertices)}
    rows: list[int] = []
    cols: list[int] = []
    for i, v in enumerate(vertices):
        for w in adj[int(v)]:
            j = pos.get(int(w))
            if j is not None:
                rows.append(j)
                cols.append(i)
    m = len(vertices)
    rows_arr = np.asarray(rows + list(range(m)), dtype=np.int64)
    cols_arr = np.asarray(cols + list(range(m)), dtype=np.int64)
    return coo_to_csc((m, m), rows_arr, cols_arr)


def _dissect(adj, vertices, leaf_size, out) -> None:
    if vertices.size == 0:
        return
    if vertices.size <= leaf_size:
        local = amd(subgraph_matrix(adj, vertices))
        out.extend(int(vertices[i]) for i in local)
        return
    mask = np.zeros(len(adj), dtype=bool)
    mask[vertices] = True
    start, _ = pseudo_peripheral_vertex(adj, int(vertices[0]), mask)
    level, levels = bfs_levels(adj, start, mask)
    unreached = vertices[level[vertices] < 0]
    if unreached.size:
        _dissect(adj, vertices[level[vertices] >= 0], leaf_size, out)
        _dissect(adj, unreached, leaf_size, out)
        return
    if len(levels) < 3:
        local = amd(subgraph_matrix(adj, vertices))
        out.extend(int(vertices[i]) for i in local)
        return
    sep_level = _pick_separator(levels)
    sep = levels[sep_level]
    left = vertices[(level[vertices] >= 0) & (level[vertices] < sep_level)]
    right = vertices[level[vertices] > sep_level]
    _dissect(adj, left, leaf_size, out)
    _dissect(adj, right, leaf_size, out)
    local = amd(subgraph_matrix(adj, sep))
    out.extend(int(sep[i]) for i in local)


def nested_dissection(a: CSCMatrix, *, leaf_size: int = 64) -> np.ndarray:
    n = a.ncols
    if n == 0:
        return np.zeros(0, dtype=np.int64)
    out: list[int] = []
    _dissect(adjacency_lists(a), np.arange(n, dtype=np.int64), leaf_size, out)
    return np.asarray(out, dtype=np.int64)


def mc64(a: CSCMatrix) -> MC64Result:
    """Per-column cost set-up and a Dijkstra on NumPy scalars."""
    n = a.ncols
    if n == 0:
        return MC64Result(np.zeros(0, np.int64), np.zeros(0), np.zeros(0), 0.0)
    absval = np.abs(a.data)
    cost = np.full(absval.shape, np.inf)
    colmax_log = np.empty(n)
    for j in range(n):
        sl = a.col_slice(j)
        vals = absval[sl]
        nz = vals > 0
        if not nz.any():
            raise StructurallySingularError(f"column {j} has no nonzero entries")
        colmax_log[j] = np.log(float(vals[nz].max()))
        cost[sl] = np.where(nz, colmax_log[j] - np.log(np.where(nz, vals, 1.0)), np.inf)

    pi_row = np.zeros(n)
    pi_col = np.zeros(n)
    row_of_col = np.full(n, -1, dtype=np.int64)
    col_of_row = np.full(n, -1, dtype=np.int64)
    INF = np.inf
    for j0 in range(n):
        dist_row: dict[int, float] = {}
        dist_col: dict[int, float] = {j0: 0.0}
        parent_col_of_row: dict[int, int] = {}
        done_rows: set[int] = set()
        heap: list[tuple[float, int]] = []

        def _relax_from_col(j: int, dj: float) -> None:
            sl = a.col_slice(j)
            rows = a.indices[sl]
            costs = cost[sl]
            pj = pi_col[j]
            for pos in range(rows.size):
                r = int(rows[pos])
                if r in done_rows:
                    continue
                w = costs[pos] + pj - pi_row[r]
                if not np.isfinite(w):
                    continue
                nd = dj + w
                if nd < dist_row.get(r, INF):
                    dist_row[r] = nd
                    parent_col_of_row[r] = j
                    heapq.heappush(heap, (nd, r))

        _relax_from_col(j0, 0.0)
        end_row, delta = -1, INF
        while heap:
            d, r = heapq.heappop(heap)
            if r in done_rows or d > dist_row.get(r, INF):
                continue
            done_rows.add(r)
            jm = int(col_of_row[r])
            if jm < 0:
                end_row, delta = r, d
                break
            if d < dist_col.get(jm, INF):
                dist_col[jm] = d
                _relax_from_col(jm, d)
        if end_row < 0:
            raise StructurallySingularError(
                "matrix is structurally singular (no perfect matching)"
            )
        for j, dj in dist_col.items():
            pi_col[j] += min(dj, delta) - delta
        for r, dr in dist_row.items():
            pi_row[r] += min(dr, delta) - delta
        r = end_row
        while True:
            j = parent_col_of_row[r]
            prev_r = int(row_of_col[j])
            row_of_col[j] = r
            col_of_row[r] = j
            if j == j0:
                break
            r = prev_r

    log_product = 0.0
    for j in range(n):
        sl = a.col_slice(j)
        pos = int(np.searchsorted(a.indices[sl], int(row_of_col[j])))
        log_product += float(np.log(absval[sl][pos]))
    row_scale = np.exp(pi_row)
    col_scale = np.exp(-pi_col - colmax_log)
    return MC64Result(row_of_col.copy(), row_scale, col_scale, log_product)


# ----------------------------------------------------------------------
# symbolic
# ----------------------------------------------------------------------


def elimination_tree(a: CSCMatrix, *, symmetrize: bool = True) -> np.ndarray:
    s = symmetrize_pattern(a) if symmetrize else a
    n = s.ncols
    parent = np.full(n, -1, dtype=np.int64)
    ancestor = np.full(n, -1, dtype=np.int64)
    for j in range(n):
        rows = s.indices[s.col_slice(j)]
        for r in rows[rows < j]:
            i = int(r)
            while True:
                anc = int(ancestor[i])
                ancestor[i] = j
                if anc < 0:
                    if parent[i] < 0 and i != j:
                        parent[i] = j
                    break
                if anc == j:
                    break
                i = anc
    return parent


def fill_in_values(pattern: CSCMatrix, a: CSCMatrix) -> CSCMatrix:
    """Per-column ``searchsorted`` value injection."""
    if pattern.shape != a.shape:
        raise ValueError("shape mismatch")
    out = pattern.pattern_copy()
    data = out.data
    for j in range(a.ncols):
        sl_a = a.col_slice(j)
        rows_a = a.indices[sl_a]
        if rows_a.size == 0:
            continue
        rows_p = out.indices[out.col_slice(j)]
        pos = np.searchsorted(rows_p, rows_a)
        if np.any(pos >= rows_p.size) or np.any(
            rows_p[np.minimum(pos, rows_p.size - 1)] != rows_a
        ):
            raise ValueError(f"pattern does not cover column {j} of the input")
        data[int(out.indptr[j]) + pos] = a.data[sl_a]
    return out


def symbolic_symmetric(a: CSCMatrix) -> SymbolicResult:
    """Two row-subtree passes over the elimination tree."""
    n = a.ncols
    s = symmetrize_pattern(a)
    parent = elimination_tree(s, symmetrize=False)
    mark = np.full(n, -1, dtype=np.int64)
    row_counts = np.zeros(n, dtype=np.int64)
    for i in range(n):
        mark[i] = i
        rows = s.indices[s.col_slice(i)]
        for r in rows[rows < i]:
            j = int(r)
            while j != -1 and mark[j] != i:
                mark[j] = i
                row_counts[i] += 1
                j = int(parent[j])
    row_ptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(row_counts, out=row_ptr[1:])
    lower_cols = np.empty(int(row_ptr[-1]), dtype=np.int64)
    fill_pos = row_ptr[:-1].copy()
    mark[:] = -1
    for i in range(n):
        mark[i] = i
        rows = s.indices[s.col_slice(i)]
        for r in rows[rows < i]:
            j = int(r)
            while j != -1 and mark[j] != i:
                mark[j] = i
                lower_cols[fill_pos[i]] = j
                fill_pos[i] += 1
                j = int(parent[j])
    lower_rows = np.repeat(np.arange(n, dtype=np.int64), row_counts)
    diag = np.arange(n, dtype=np.int64)
    rows_all = np.concatenate([lower_rows, lower_cols, diag])
    cols_all = np.concatenate([lower_cols, lower_rows, diag])
    pattern = coo_to_csc((n, n), rows_all, cols_all, np.zeros(rows_all.size))
    nnz = int(lower_rows.size) + n
    return SymbolicResult(fill_in_values(pattern, a), parent, nnz, nnz)


def missing_diagonal(a: CSCMatrix) -> list[int]:
    """Columns whose diagonal entry is not stored (per-column search)."""
    missing = []
    for j in range(min(a.shape)):
        rows = a.indices[a.col_slice(j)]
        pos = np.searchsorted(rows, j)
        if pos >= rows.size or rows[pos] != j:
            missing.append(j)
    return missing


# ----------------------------------------------------------------------
# blocking and DAG
# ----------------------------------------------------------------------


def block_partition(filled: CSCMatrix, bs, *, arena=False, dtype=None) -> BlockMatrix:
    """Per-column, per-block-row chunking into the two-layer structure."""
    dtype = np.dtype(dtype) if dtype is not None else filled.dtype
    n = filled.ncols
    if np.ndim(bs) == 0:
        bs = int(bs)
        bounds = boundaries_from_block_size(n, bs)
    else:
        bounds = _validate_boundaries(n, bs)
        bs = int(np.diff(bounds).max())
    nb = bounds.size - 1
    col_chunks: dict[tuple[int, int], list] = {}
    data = filled.data
    col_block = np.repeat(np.arange(nb, dtype=np.int64), np.diff(bounds))
    upper = bounds[1:]
    for j in range(n):
        bj = int(col_block[j])
        lc = j - int(bounds[bj])
        sl = filled.col_slice(j)
        rows = filled.indices[sl]
        if rows.size == 0:
            continue
        vals = data[sl]
        cut = np.searchsorted(rows, upper)
        start = 0
        for bi in range(nb):
            end = int(cut[bi])
            if end > start:
                col_chunks.setdefault((bi, bj), []).append(
                    (lc, rows[start:end] - int(bounds[bi]), vals[start:end],
                     sl.start + start)
                )
            start = end
    blocks_per_col: list[list[tuple]] = [[] for _ in range(nb)]
    for (bi, bj), chunks in col_chunks.items():
        bo_r = int(bounds[bi + 1] - bounds[bi])
        bo_c = int(bounds[bj + 1] - bounds[bj])
        indptr = np.zeros(bo_c + 1, dtype=np.int64)
        for lc, r, _, _ in chunks:
            indptr[lc + 1] = r.size
        np.cumsum(indptr, out=indptr)
        nnz = int(indptr[-1])
        indices = np.empty(nnz, dtype=np.int64)
        vals_arr = np.empty(nnz, dtype=dtype)
        pos_arr = np.empty(nnz, dtype=np.int64)
        for lc, r, v, gstart in chunks:
            dst = slice(int(indptr[lc]), int(indptr[lc + 1]))
            indices[dst] = r
            vals_arr[dst] = v
            pos_arr[dst] = np.arange(gstart, gstart + r.size, dtype=np.int64)
        blocks_per_col[bj].append((bi, (bo_r, bo_c), indptr, indices, vals_arr, pos_arr))
    blk_colptr = np.zeros(nb + 1, dtype=np.int64)
    rowidx: list[int] = []
    payloads: list[tuple] = []
    for bj in range(nb):
        entries = sorted(blocks_per_col[bj], key=lambda t: t[0])
        blk_colptr[bj + 1] = blk_colptr[bj] + len(entries)
        for bi, *payload in entries:
            rowidx.append(bi)
            payloads.append(payload)
    out = BlockMatrix(
        n=n, bs=bs, nb=nb, blk_colptr=blk_colptr,
        blk_rowidx=np.asarray(rowidx, dtype=np.int64), blk_values=[],
        dtype=dtype, boundaries=bounds,
    )
    if not arena:
        out.blk_values = [
            CSCMatrix(shape, indptr, indices, vals, check=False)
            for shape, indptr, indices, vals, _ in payloads
        ]
        return out
    ptr_off = np.zeros(len(payloads) + 1, dtype=np.int64)
    val_off = np.zeros(len(payloads) + 1, dtype=np.int64)
    for slot, (_, indptr, indices, _, _) in enumerate(payloads):
        ptr_off[slot + 1] = ptr_off[slot] + indptr.size
        val_off[slot + 1] = val_off[slot] + indices.size

    def cat(k: int, empty: np.ndarray) -> np.ndarray:
        return np.concatenate([p[k] for p in payloads]) if payloads else empty

    ints = np.zeros(0, dtype=np.int64)
    out.arena = FactorArena(
        indptr=cat(1, ints), indices=cat(2, ints),
        data=cat(3, np.zeros(0, dtype=dtype)),
        ptr_off=ptr_off, val_off=val_off, gather=cat(4, ints),
    )
    out.blk_values = [
        out.arena.slot_view(slot, p[0]) for slot, p in enumerate(payloads)
    ]
    return out


def diag_counts(block: CSCMatrix) -> SimpleNamespace:
    """Per-pivot strict-lower/upper counts of a diagonal block, per column."""
    n = block.ncols
    lower_col = np.zeros(n, dtype=np.int64)
    upper_col = np.zeros(n, dtype=np.int64)
    upper_row = np.zeros(n, dtype=np.int64)
    for j in range(n):
        rows = block.indices[block.col_slice(j)]
        pos = int(np.searchsorted(rows, j))
        has_diag = 1 if pos < rows.size and rows[pos] == j else 0
        lower_col[j] = rows.size - pos - has_diag
        upper_col[j] = pos
        np.add.at(upper_row, rows[:pos], 1)
    return SimpleNamespace(lower_col=lower_col, upper_col=upper_col, upper_row=upper_row)


def _supports(blocks: list[CSCMatrix]) -> tuple[list[np.ndarray], list[np.ndarray]]:
    """Per-block column/row structural-support masks, one block at a time."""
    col_support = []
    row_support = []
    for blk in blocks:
        col_support.append(np.diff(blk.indptr) > 0)
        rs = np.zeros(blk.nrows, dtype=bool)
        rs[blk.indices] = True
        row_support.append(rs)
    return col_support, row_support


def build_dag(f: BlockMatrix) -> TaskDAG:
    """Per-(i, j)-pair Schur-support tests at every elimination step."""
    nb = f.nb
    tasks: list[Task] = []
    panel_of_block: dict[tuple[int, int], int] = {}
    ssssm_into: dict[tuple[int, int], list[int]] = {}
    lcol: list[list[int]] = [[] for _ in range(nb)]
    urow: list[list[int]] = [[] for _ in range(nb)]
    for bj in range(nb):
        rows, _ = f.blocks_in_column(bj)
        for bi in rows:
            bi = int(bi)
            if bi > bj:
                lcol[bj].append(bi)
            elif bi < bj:
                urow[bi].append(bj)

    def add(ttype, k, bi, bj, flops) -> int:
        tasks.append(Task(len(tasks), ttype, k, bi, bj, flops))
        return len(tasks) - 1

    col_support, row_support = _supports(f.blk_values)
    for k in range(nb):
        diag = f.block(k, k)
        if diag is None:
            raise ValueError(f"diagonal block ({k},{k}) is structurally empty")
        counts = diag_counts(diag)
        getrf_fl = int(
            np.sum(counts.lower_col) + 2 * np.dot(counts.lower_col, counts.upper_row)
        )
        panel_of_block[(k, k)] = add(TaskType.GETRF, k, k, k, getrf_fl)
        u_rownnz: dict[int, np.ndarray] = {}
        for j in urow[k]:
            b = f.block(k, j)
            panel_of_block[(k, j)] = add(
                TaskType.GESSM, k, k, j, gessm_flops_from_counts(counts, b)
            )
            rn = np.zeros(b.nrows, dtype=np.int64)
            np.add.at(rn, b.indices, 1)
            u_rownnz[j] = rn
        l_colnnz: dict[int, np.ndarray] = {}
        for i in lcol[k]:
            b = f.block(i, k)
            panel_of_block[(i, k)] = add(
                TaskType.TSTRF, k, i, k, tstrf_flops_from_counts(counts, b)
            )
            l_colnnz[i] = np.diff(b.indptr)
        for i in lcol[k]:
            csup = col_support[f.block_slot(i, k)]
            for j in urow[k]:
                rsup = row_support[f.block_slot(k, j)]
                if not bool(np.any(csup & rsup)):
                    continue
                fl = int(2 * np.dot(l_colnnz[i], u_rownnz[j]))
                tid = add(TaskType.SSSSM, k, i, j, fl)
                ssssm_into.setdefault((i, j), []).append(tid)

    for t in tasks:
        if t.ttype == TaskType.GETRF:
            preds = ssssm_into.get((t.k, t.k), [])
            t.n_deps = len(preds)
            for p in preds:
                tasks[p].successors.append(t.tid)
        elif t.ttype in (TaskType.GESSM, TaskType.TSTRF):
            preds = ssssm_into.get((t.bi, t.bj), [])
            t.n_deps = 1 + len(preds)
            tasks[panel_of_block[(t.k, t.k)]].successors.append(t.tid)
            for p in preds:
                tasks[p].successors.append(t.tid)
        else:
            t.n_deps = 2
            tasks[panel_of_block[(t.bi, t.k)]].successors.append(t.tid)
            tasks[panel_of_block[(t.k, t.bj)]].successors.append(t.tid)
    total = int(sum(t.flops for t in tasks))
    return TaskDAG(tasks=tasks, panel_of_block=panel_of_block, total_flops=total)
