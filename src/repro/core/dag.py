"""Task DAG of the right-looking block LU factorisation.

Every node is one kernel invocation on one block — the paper's minimum
scheduling unit ("uses sparse kernels as the smallest scheduling unit",
Section 4.4).  For elimination step ``k``:

* ``GETRF(k)``      factors diagonal block ``(k, k)``;
* ``TSTRF(i, k)``   turns block ``(i, k)``, ``i > k``, into ``L``;
* ``GESSM(k, j)``   turns block ``(k, j)``, ``j > k``, into ``U``;
* ``SSSSM(k, i, j)`` applies ``C(i,j) −= L(i,k) · U(k,j)``.

An SSSSM node exists only when the structural product is nonempty (the
column support of ``L(i,k)`` intersects the row support of ``U(k,j)``);
fill closure then guarantees the target block exists.

Dependencies:

* ``GETRF(k)``      ← every ``SSSSM(·, k, k)``;
* ``GESSM(k, j)``   ← ``GETRF(k)`` + every ``SSSSM(·, k, j)``;
* ``TSTRF(i, k)``   ← ``GETRF(k)`` + every ``SSSSM(·, i, k)``;
* ``SSSSM(k, i, j)``← ``TSTRF(i, k)`` + ``GESSM(k, j)``.

The per-block *synchronisation-free array* of Section 4.4 is exactly the
count of unfinished SSSSM predecessors of each block's panel task; it is
exposed by :func:`sync_free_array` for tests and illustration.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

import numpy as np

from ..kernels.flops import (
    diag_counts,
    gessm_flops_from_counts,
    tstrf_flops_from_counts,
)
from .blocking import BlockMatrix

__all__ = ["TaskType", "Task", "TaskDAG", "build_dag", "sync_free_array"]


class TaskType(enum.IntEnum):
    """Kernel role of a DAG node (ordering = scheduling priority class)."""

    GETRF = 0
    GESSM = 1
    TSTRF = 2
    SSSSM = 3


@dataclass
class Task:
    """One kernel invocation.

    ``(bi, bj)`` is the *target* block; ``k`` the elimination step.  For
    SSSSM the operands are ``L(bi, k)`` and ``U(k, bj)``.
    """

    tid: int
    ttype: TaskType
    k: int
    bi: int
    bj: int
    flops: int
    n_deps: int = 0
    successors: list[int] = field(default_factory=list)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Task({self.tid}: {self.ttype.name} k={self.k} "
            f"target=({self.bi},{self.bj}) flops={self.flops})"
        )


@dataclass
class TaskDAG:
    """The full task graph plus lookup indices.

    Attributes
    ----------
    tasks:
        All tasks, indexed by ``tid``.
    panel_of_block:
        Maps ``(bi, bj)`` to the tid of the block's panel task (GETRF /
        GESSM / TSTRF).
    total_flops:
        Sum of all task FLOP counts — the paper's Table 3 "PanguLU FLOPs".
    """

    tasks: list[Task]
    panel_of_block: dict[tuple[int, int], int]
    total_flops: int

    def __len__(self) -> int:
        return len(self.tasks)

    def roots(self) -> list[int]:
        """Tasks with no dependencies (initially runnable)."""
        return [t.tid for t in self.tasks if t.n_deps == 0]

    def dep_counts(self) -> np.ndarray:
        """Fresh copy of the per-task dependency counters."""
        return np.asarray([t.n_deps for t in self.tasks], dtype=np.int64)

    def critical_path_flops(self) -> int:
        """FLOP weight of the longest dependency chain — a lower bound on
        any schedule's makespan in flop units."""
        n = len(self.tasks)
        depth = np.zeros(n, dtype=np.int64)
        indeg = self.dep_counts()
        stack = [t for t in range(n) if indeg[t] == 0]
        for t in stack:
            depth[t] = self.tasks[t].flops
        out = 0
        while stack:
            t = stack.pop()
            out = max(out, int(depth[t]))
            for s in self.tasks[t].successors:
                depth[s] = max(depth[s], depth[t] + self.tasks[s].flops)
                indeg[s] -= 1
                if indeg[s] == 0:
                    stack.append(s)
        return out


def build_dag(f: BlockMatrix) -> TaskDAG:
    """Construct the task DAG from the blocked filled pattern.

    Tasks are numbered step by step: ``GETRF(k)``, then the step's GESSMs
    and TSTRFs in block order, then its SSSSMs in row-major ``(i, j)``
    order.  One integer matmul per step prices every Schur pair at once:
    ``C[i, j] = nnz-per-column(L(i,k)) · nnz-per-row(U(k,j))`` is half the
    pair's FLOPs, and it is zero exactly when the product is structurally
    empty.  The dependency edges are then gathered as arrays, and each
    task's successors come out in increasing tid order.
    """
    nb = f.nb
    rowidx = f.blk_rowidx
    slot_col = np.repeat(np.arange(nb, dtype=np.int64), np.diff(f.blk_colptr))
    diag_slot = np.full(nb, -1, dtype=np.int64)
    on_diag = rowidx == slot_col
    diag_slot[slot_col[on_diag]] = np.flatnonzero(on_diag)
    if (diag_slot < 0).any():
        k = int(np.argmin(diag_slot))
        raise ValueError(
            f"diagonal block ({k},{k}) is structurally empty — "
            "the input needs a zero-free diagonal (run MC64 first)"
        )
    # per-step L-column (block rows i > k of column k) and U-row (block
    # columns j > k of row k) slots, both in increasing block order
    lower = np.flatnonzero(rowidx > slot_col)
    upper = np.flatnonzero(rowidx < slot_col)
    upper = upper[np.argsort(rowidx[upper], kind="stable")]
    l_ptr = np.searchsorted(slot_col[lower], np.arange(nb + 1)).tolist()
    u_ptr = np.searchsorted(rowidx[upper], np.arange(nb + 1)).tolist()
    values = f.blk_values

    # ---- create all tasks, one column list per Task field -----------------
    panel_tid = np.empty(rowidx.size, dtype=np.int64)
    ttype: list[TaskType] = []
    step: list[int] = []
    t_bi: list[int] = []
    t_bj: list[int] = []
    flops: list[int] = []
    # per SSSSM: its tid, its two operand panel tids, its target's slot key
    ss_tid, ss_l, ss_u, ss_key = [], [], [], []

    def add(tt: TaskType, k: int, bi: int, bj: int, fl: int) -> int:
        ttype.append(tt)
        step.append(k)
        t_bi.append(bi)
        t_bj.append(bj)
        flops.append(fl)
        return len(ttype) - 1

    for k in range(nb):
        counts = diag_counts(values[diag_slot[k]])
        getrf_fl = int(
            np.sum(counts.lower_col)
            + 2 * np.dot(counts.lower_col, counts.upper_row)
        )
        panel_tid[diag_slot[k]] = add(TaskType.GETRF, k, k, k, getrf_fl)
        u_slots = upper[u_ptr[k] : u_ptr[k + 1]]
        l_slots = lower[l_ptr[k] : l_ptr[k + 1]]
        u_rownnz = []
        for slot, j in zip(u_slots.tolist(), slot_col[u_slots].tolist()):
            b = values[slot]
            fl = gessm_flops_from_counts(counts, b)
            panel_tid[slot] = add(TaskType.GESSM, k, k, j, fl)
            u_rownnz.append(np.bincount(b.indices, minlength=b.nrows))
        l_colnnz = []
        for slot, i in zip(l_slots.tolist(), rowidx[l_slots].tolist()):
            b = values[slot]
            fl = tstrf_flops_from_counts(counts, b)
            panel_tid[slot] = add(TaskType.TSTRF, k, i, k, fl)
            l_colnnz.append(np.diff(b.indptr))
        if not (l_colnnz and u_rownnz):
            continue
        # Schur updates from step k: the nonzero entries of one count matmul
        half_flops = np.stack(l_colnnz) @ np.stack(u_rownnz).T
        li, ui = np.nonzero(half_flops)
        bi, bj = rowidx[l_slots[li]], slot_col[u_slots[ui]]
        ss_tid.append(np.arange(len(ttype), len(ttype) + li.size))
        ss_l.append(panel_tid[l_slots[li]])
        ss_u.append(panel_tid[u_slots[ui]])
        ss_key.append(bj * nb + bi)
        ttype.extend([TaskType.SSSSM] * li.size)
        step.extend([k] * li.size)
        t_bi.extend(bi.tolist())
        t_bj.extend(bj.tolist())
        flops.extend((2 * half_flops[li, ui]).tolist())

    # ---- wire dependencies ------------------------------------------------
    # GETRF(k) -> every GESSM/TSTRF of step k; SSSSM -> the panel task of
    # its target block; TSTRF(i,k), GESSM(k,j) -> SSSSM(k,i,j)
    n_tasks = len(ttype)
    codes = np.asarray(ttype, dtype=np.int64)
    solves = np.flatnonzero((codes == TaskType.GESSM) | (codes == TaskType.TSTRF))
    ss = np.concatenate(ss_tid) if ss_tid else np.zeros(0, dtype=np.int64)
    key = np.concatenate(ss_key) if ss_key else ss
    slot_key = slot_col * nb + rowidx
    pos = np.searchsorted(slot_key, key)
    into = np.append(slot_key, -1)[pos] == key
    getrf_of_solve = panel_tid[diag_slot][np.asarray(step, dtype=np.int64)[solves]]
    pred = np.concatenate([getrf_of_solve, ss[into], *ss_l, *ss_u])
    succ = np.concatenate([solves, panel_tid[pos[into]], ss, ss])
    n_deps = np.bincount(succ, minlength=n_tasks).tolist()
    succ_sorted = succ[np.lexsort((succ, pred))].tolist()
    off = np.zeros(n_tasks + 1, dtype=np.int64)
    np.cumsum(np.bincount(pred, minlength=n_tasks), out=off[1:])
    off = off.tolist()

    tasks = [
        Task(t, *fields, successors=succ_sorted[off[t] : off[t + 1]])
        for t, fields in enumerate(zip(ttype, step, t_bi, t_bj, flops, n_deps))
    ]
    panel_of_block = {
        (t_bi[t], t_bj[t]): t for t in np.flatnonzero(codes != TaskType.SSSSM).tolist()
    }
    return TaskDAG(tasks=tasks, panel_of_block=panel_of_block, total_flops=sum(flops))


def sync_free_array(dag: TaskDAG, nb: int) -> dict[tuple[int, int], int]:
    """The paper's per-block synchronisation-free array (Fig. 9).

    Value = number of GESSM/TSTRF/SSSSM operations the block still has to
    receive before its next phase can fire: for a diagonal block, 0 means
    GETRF may run (−1 after it completes, releasing its row and column);
    for an off-diagonal block, 0 means its panel solve may run once the
    diagonal is done.
    """
    counts: dict[tuple[int, int], int] = {}
    for (bi, bj), tid in dag.panel_of_block.items():
        t = dag.tasks[tid]
        ssssm_preds = t.n_deps if t.ttype == TaskType.GETRF else t.n_deps - 1
        counts[(bi, bj)] = ssssm_preds
    return counts
