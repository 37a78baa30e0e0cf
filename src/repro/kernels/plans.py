"""Fixed-pattern execution plans: precomputed scatter addressing.

The paper's central performance argument is that every numeric kernel
writes only inside a *fixed, preallocated* symbolic pattern (fill closure
guarantees each product term a destination slot).  The sparse kernel
variants nevertheless *rediscover* that pattern on every invocation —
per-entry Python loops with a ``numpy.searchsorted`` (bin-search
addressing) or ``numpy.intersect1d`` (merge addressing) per pivot.  Since
patterns never change after symbolic factorisation, all of that address
arithmetic can be done **once per block (pair/triple)** and amortised
across the numeric phase — in particular across the refactorisations of
Newton/time-stepping loops, the workload PanguLU's introduction
motivates.

A *plan* is a set of flattened ``int64`` index arrays mapping source
entries directly to destination ``data`` slots:

* :class:`SSSSMPlan` — one ``(src_a, src_b, dst)`` triple per structural
  product term of ``C ← C − A·B``; execution is a single elementwise
  multiply plus one ``np.subtract.at`` scatter.
* :class:`SolvePlan` — the solve order of GESSM/TSTRF (one step per
  pivot entry) with per-step update targets and, for TSTRF, the divisor
  index and the transpose gather permutation.
* :class:`GETRFPlan` — the left-looking column/pivot schedule of the
  sparse GETRF variants with per-step source/target index segments.

Plans replicate the *exact* floating-point operation sequence of the
sparse kernel variants they replace (same products, same order, same
structural-validity masking), so planned execution is bit-identical to
the unplanned kernels — asserted by ``tests/test_plans.py``.  Only the
sparse-addressing variants are plannable (see :data:`PLANNABLE_VERSIONS`);
the dense-mapped and compiled variants already run at vendor-library
speed and use different summation orders.

Plans are built lazily on first use and cached in a :class:`PlanCache`
keyed by the storage slots of the participating blocks (patterns are
immutable post-symbolic), shared by every engine the executor runs
(each distributed rank keeps its own) — and accounted by
:func:`repro.core.memory.memory_report`.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass

import numpy as np

from ..sparse.csc import CSCMatrix
from .base import SingularBlockError
from .getrf import _fix_pivot
from .registry import KernelType

__all__ = [
    "SSSSMPlan",
    "SolvePlan",
    "GETRFPlan",
    "PlanCache",
    "PLANNABLE_VERSIONS",
    "build_ssssm_plan",
    "run_ssssm_plan",
    "rebase_ssssm_plan",
    "run_ssssm_plan_arena",
    "build_gessm_plan",
    "run_gessm_plan",
    "build_tstrf_plan",
    "run_tstrf_plan",
    "build_getrf_plan",
    "run_getrf_plan",
]

# registered for the `lock-discipline` lint rule: the plan dict is only
# written under the cache lock (reads stay lock-free — see PlanCache.get)
__guarded_by__ = {
    "self._lock": ("self._plans", "self.builds"),
}

#: Kernel versions whose numeric behaviour a plan reproduces exactly.
#: Dense-mapped (``C_V1`` GEMM, ``C_V2``/``G_V3`` panels) and compiled
#: (``G_V1`` SpGEMM, ``G_V3`` solves) variants use different summation
#: orders and stay unplanned.
PLANNABLE_VERSIONS: dict[KernelType, frozenset[str]] = {
    KernelType.GETRF: frozenset({"G_V1", "G_V2"}),
    KernelType.GESSM: frozenset({"C_V1", "G_V1"}),
    KernelType.TSTRF: frozenset({"C_V1", "G_V1"}),
    KernelType.SSSSM: frozenset({"C_V2", "G_V2"}),
}


# ----------------------------------------------------------------------
# SSSSM — Schur update scatter maps
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class SSSSMPlan:
    """Flattened scatter map for ``C ← C − A·B``.

    ``c.data[dst[i]] -= a.data[src_a[i]] * b.data[src_b[i]]`` applied in
    order — exactly the operation sequence of ``ssssm_c_v2``.
    """

    src_a: np.ndarray
    src_b: np.ndarray
    dst: np.ndarray

    @property
    def nbytes(self) -> int:
        return self.src_a.nbytes + self.src_b.nbytes + self.dst.nbytes


def _flatten_segments(
    seg_start: np.ndarray, seg_count: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Flatten variable-length index ranges ``[start, start+count)``.

    Returns ``(owner, flat)`` where ``flat`` concatenates the ranges in
    order and ``owner[i]`` is the segment that produced ``flat[i]`` —
    the vectorised equivalent of a loop of ``arange`` concatenations.
    """
    total = int(seg_count.sum())
    owner = np.repeat(np.arange(seg_count.size, dtype=np.int64), seg_count)
    offs = np.arange(total, dtype=np.int64) - np.repeat(
        np.cumsum(seg_count) - seg_count, seg_count
    )
    return owner, np.repeat(seg_start, seg_count) + offs


def _colkeys(indptr: np.ndarray, indices: np.ndarray, nrows: int) -> np.ndarray:
    """Globally-sorted ``column * nrows + row`` keys of a CSC pattern.

    Sorted-unique rows per column make this strictly increasing across
    the whole array, so one global binary search replaces a per-column
    one — the locate step of every plan build.
    """
    cols = np.repeat(
        np.arange(indptr.size - 1, dtype=np.int64), np.diff(indptr)
    )
    return cols * nrows + indices


def _locate(keys: np.ndarray, tgt_key: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Positions of ``keys`` in the sorted ``tgt_key`` plus a validity
    mask — the same structural masking as the bin-search kernels."""
    pos = np.searchsorted(tgt_key, keys)
    valid = pos < tgt_key.size
    np.minimum(pos, max(tgt_key.size - 1, 0), out=pos)
    if tgt_key.size:
        valid &= tgt_key[pos] == keys
    else:
        valid[:] = False
    return pos, valid


def build_ssssm_plan(
    c: CSCMatrix, a: CSCMatrix, b: CSCMatrix, *, entry_limit: int | None = None
) -> SSSSMPlan | None:
    """Precompute the scatter map of the structural product ``A·B`` into
    ``C``'s fixed pattern.

    Returns ``None`` when the map would exceed ``entry_limit`` entries
    (the caller falls back to unplanned execution) — a memory valve for
    near-dense products whose plan would rival the factors in size.
    """
    a_colnnz = np.diff(a.indptr)
    counts = a_colnnz[b.indices]
    total = int(counts.sum())
    if entry_limit is not None and total > entry_limit:
        return None
    empty = np.zeros(0, dtype=np.int64)
    if total == 0:
        return SSSSMPlan(src_a=empty, src_b=empty, dst=empty)
    # one flat entry per product term, in ssssm_c_v2 loop order:
    # B entries column-major, then the A[:, t] column for each
    src_b, src_a = _flatten_segments(a.indptr[:-1][b.indices], counts)
    b_cols = np.repeat(np.arange(b.ncols, dtype=np.int64), np.diff(b.indptr))
    keys = b_cols[src_b] * c.nrows + a.indices[src_a]
    pos, valid = _locate(keys, _colkeys(c.indptr, c.indices, c.nrows))
    if valid.all():
        return SSSSMPlan(src_a=src_a, src_b=src_b, dst=pos)
    return SSSSMPlan(src_a=src_a[valid], src_b=src_b[valid], dst=pos[valid])


def run_ssssm_plan(plan: SSSSMPlan, c: CSCMatrix, a: CSCMatrix, b: CSCMatrix) -> None:
    """Execute a planned Schur update: one multiply, one ordered scatter."""
    prod = a.data[plan.src_a]
    prod *= b.data[plan.src_b]
    np.subtract.at(c.data, plan.dst, prod)


def rebase_ssssm_plan(
    plan: SSSSMPlan | None, a_off: int, b_off: int, c_off: int
) -> SSSSMPlan | None:
    """Translate a block-local scatter map into **arena-global** offsets.

    On the arena layout every block's ``data`` is a view into one shared
    value slab; adding each block's slab offset to the plan's index arrays
    yields a plan that addresses the slab directly
    (:func:`run_ssssm_plan_arena`), skipping the three per-call view
    lookups.  The indexing order is unchanged, so execution remains
    bit-identical to the view-based form.  ``None`` (a declined plan)
    passes through.
    """
    if plan is None:
        return None
    return SSSSMPlan(
        src_a=plan.src_a + a_off,
        src_b=plan.src_b + b_off,
        dst=plan.dst + c_off,
    )


def run_ssssm_plan_arena(plan: SSSSMPlan, data: np.ndarray) -> None:
    """Execute an offset-rebased Schur update directly on the value slab."""
    prod = data[plan.src_a]
    prod *= data[plan.src_b]
    np.subtract.at(data, plan.dst, prod)


# ----------------------------------------------------------------------
# GESSM / TSTRF — planned triangular solves
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class SolvePlan:
    """Solve-order plan of a block triangular solve.

    One *step* per pivot entry of the right-hand-side block (in solve
    order).  Step ``i`` reads ``x_t`` at ``work[piv[i]]``, divides by
    ``diag.data[div[i]]`` when ``div`` is present (TSTRF's non-unit
    diagonal), and applies ``work[dst[s:e]] -= diag.data[src[s:e]] * x_t``
    with ``s, e = seg_ptr[i], seg_ptr[i+1]``.  ``gather`` (TSTRF only) is
    the permutation taking ``b.data`` into the transposed work order.
    """

    piv: np.ndarray
    seg_ptr: np.ndarray
    dst: np.ndarray
    src: np.ndarray
    div: np.ndarray | None = None
    gather: np.ndarray | None = None

    @property
    def nbytes(self) -> int:
        n = self.piv.nbytes + self.seg_ptr.nbytes + self.dst.nbytes + self.src.nbytes
        if self.div is not None:
            n += self.div.nbytes
        if self.gather is not None:
            n += self.gather.nbytes
        return n


def _upper_counts(indptr: np.ndarray, indices: np.ndarray) -> np.ndarray:
    """Per column, the number of entries with ``row <= column``.

    Rows are sorted within a column, so these are the leading entries:
    ``indptr[:-1] + _upper_counts(...)`` is the start of each column's
    strict-lower segment.
    """
    n = indptr.size - 1
    cols = np.repeat(np.arange(n, dtype=np.int64), np.diff(indptr))
    return np.bincount(cols[indices <= cols], minlength=n)


def _plan_steps(
    step_t: np.ndarray,
    step_col: np.ndarray,
    src_start: np.ndarray,
    src_end: np.ndarray,
    src_indices: np.ndarray,
    tgt_key: np.ndarray,
    tgt_nrows: int,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Resolve the update targets of a batch of solve steps at once.

    Step ``i`` eliminates pivot ``step_t[i]`` from target column
    ``step_col[i]``: each source entry ``src_start[t]:src_end[t]`` is
    bin-searched into the target pattern (global keys, same validity
    masking as the sparse kernels).  Returns ``(src, dst, seg)`` — the
    flattened valid source/destination indices in step order plus the
    per-step segment lengths.
    """
    counts = src_end[step_t] - src_start[step_t]
    step_idx, src_flat = _flatten_segments(src_start[step_t], counts)
    keys = step_col[step_idx] * tgt_nrows + src_indices[src_flat]
    pos, valid = _locate(keys, tgt_key)
    seg = np.bincount(step_idx[valid], minlength=step_t.size)
    return src_flat[valid], pos[valid], seg


def build_gessm_plan(diag: CSCMatrix, b: CSCMatrix) -> SolvePlan:
    """Plan the forward solve ``L·X = B`` (unit-lower ``L`` from the
    factored diagonal block).

    One candidate step per entry of ``B`` in data order; update targets
    are resolved once with the same bin-search + validity masking as
    ``gessm_g_v1``, and steps with no targets are dropped (they are
    no-ops — GESSM has no division).
    """
    l_start = diag.indptr[:-1] + _upper_counts(diag.indptr, diag.indices)
    step_t = b.indices.astype(np.int64, copy=False)
    b_cols = np.repeat(np.arange(b.ncols, dtype=np.int64), np.diff(b.indptr))
    src, dst, seg = _plan_steps(
        step_t, b_cols, l_start, diag.indptr[1:], diag.indices,
        _colkeys(b.indptr, b.indices, b.nrows), b.nrows,
    )
    keep = np.flatnonzero(seg > 0)
    seg_ptr = np.zeros(keep.size + 1, dtype=np.int64)
    np.cumsum(seg[keep], out=seg_ptr[1:])
    return SolvePlan(piv=keep, seg_ptr=seg_ptr, dst=dst, src=src)


def run_gessm_plan(plan: SolvePlan, diag: CSCMatrix, b: CSCMatrix) -> None:
    """Execute a planned GESSM solve in place on ``b.data``."""
    data = b.data
    dd = diag.data
    piv, seg_ptr, dst, src = plan.piv, plan.seg_ptr, plan.dst, plan.src
    for i in range(piv.size):
        xt = data[piv[i]]
        if xt == 0.0:
            continue
        s, e = seg_ptr[i], seg_ptr[i + 1]
        data[dst[s:e]] -= dd[src[s:e]] * xt


def _upper_transposed_map(diag: CSCMatrix) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Structural ``U^T`` of a factored diagonal block, as index maps.

    Returns ``(indptr, indices, tau)`` where column ``t`` of ``U^T``
    holds rows ``indices[indptr[t]:indptr[t+1]]`` and values
    ``diag.data[tau[indptr[t]:indptr[t+1]]]`` — the same entries, in the
    same order, as ``split_lu(diag)[1].transpose()``, but without copying
    any numeric data.
    """
    rows_d, cols_d = diag.rows_cols()
    upper = np.flatnonzero(rows_d <= cols_d)
    # U^T column = original row; within a column sorted by original column
    order = np.lexsort((cols_d[upper], rows_d[upper]))
    tau = upper[order]
    ut_cols = rows_d[tau]
    indptr = np.zeros(diag.ncols + 1, dtype=np.int64)
    np.add.at(indptr, ut_cols + 1, 1)
    np.cumsum(indptr, out=indptr)
    return indptr, cols_d[tau], tau


def build_tstrf_plan(diag: CSCMatrix, b: CSCMatrix) -> SolvePlan:
    """Plan the row solve ``X·U = B`` as the forward solve
    ``U^T·X^T = B^T`` of the transpose-based TSTRF variants.

    Every entry of ``B`` is a step (division by the ``U`` diagonal always
    happens); structurally missing diagonals raise at build time, exactly
    zero ones at run time.
    """
    ut_indptr, ut_indices, tau = _upper_transposed_map(diag)
    rows_b, cols_b = b.rows_cols()
    # permutation taking b.data into B^T (CSC-of-transpose) entry order
    gather = np.lexsort((cols_b, rows_b)).astype(np.int64)
    bt_cols = rows_b[gather]  # column of B^T per work entry, non-decreasing
    bt_rows = cols_b[gather]  # row of B^T per work entry
    # every U^T column a step touches must lead with its diagonal
    n = diag.ncols
    diag_ok = np.zeros(n, dtype=bool)
    nonempty = np.flatnonzero(ut_indptr[:-1] < ut_indptr[1:])
    diag_ok[nonempty] = ut_indices[ut_indptr[nonempty]] == nonempty
    if bt_rows.size and not diag_ok[bt_rows].all():
        t = int(bt_rows[~diag_ok[bt_rows]][0])
        raise SingularBlockError(f"zero/missing U diagonal at {t}")
    # one step per B^T entry, in work order; seg lengths may be zero
    src_flat, dst, seg = _plan_steps(
        bt_rows, bt_cols, ut_indptr[:-1] + 1, ut_indptr[1:], ut_indices,
        bt_cols * b.ncols + bt_rows, b.ncols,
    )
    seg_ptr = np.zeros(bt_rows.size + 1, dtype=np.int64)
    np.cumsum(seg, out=seg_ptr[1:])
    return SolvePlan(
        piv=np.arange(bt_rows.size, dtype=np.int64),
        seg_ptr=seg_ptr,
        dst=dst,
        src=tau[src_flat],
        div=tau[ut_indptr[:-1][bt_rows]],
        gather=gather,
    )


def run_tstrf_plan(plan: SolvePlan, diag: CSCMatrix, b: CSCMatrix) -> None:
    """Execute a planned TSTRF solve in place on ``b.data``."""
    dd = diag.data
    w = b.data[plan.gather]
    piv, div, seg_ptr = plan.piv, plan.div, plan.seg_ptr
    dst, src = plan.dst, plan.src
    for i in range(piv.size):
        uv = dd[div[i]]
        if uv == 0.0:
            raise SingularBlockError(f"zero/missing U diagonal (step {i})")
        xt = w[piv[i]] / uv
        w[piv[i]] = xt
        if xt == 0.0:
            continue
        s, e = seg_ptr[i], seg_ptr[i + 1]
        if e > s:
            w[dst[s:e]] -= dd[src[s:e]] * xt
    b.data[plan.gather] = w


# ----------------------------------------------------------------------
# GETRF — planned left-looking factorisation
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class GETRFPlan:
    """Left-looking schedule of the sparse GETRF variants.

    Column ``j`` runs the update steps ``col_step_ptr[j]`` to
    ``col_step_ptr[j+1]`` (each as in :class:`SolvePlan`), then fixes the
    pivot at ``data[diag_idx[j]]`` and divides the contiguous
    ``data[below_lo[j]:below_hi[j]]`` sub-diagonal segment.
    """

    col_step_ptr: np.ndarray
    piv: np.ndarray
    seg_ptr: np.ndarray
    dst: np.ndarray
    src: np.ndarray
    diag_idx: np.ndarray
    below_lo: np.ndarray
    below_hi: np.ndarray

    @property
    def nbytes(self) -> int:
        return (
            self.col_step_ptr.nbytes
            + self.piv.nbytes
            + self.seg_ptr.nbytes
            + self.dst.nbytes
            + self.src.nbytes
            + self.diag_idx.nbytes
            + self.below_lo.nbytes
            + self.below_hi.nbytes
        )


def build_getrf_plan(block: CSCMatrix) -> GETRFPlan:
    """Plan the sparse left-looking LU of a diagonal block.

    Mirrors ``getrf_g_v1``'s traversal: for each column, one step per
    factored upper entry ``t < j`` with precomputed source (column ``t``'s
    ``L`` segment) and destination (bin-searched into column ``j``'s
    pattern) indices.  Structurally missing pivots raise here, at plan
    time.
    """
    n = block.ncols
    indptr, indices = block.indptr, block.indices
    if indices.size == 0 and n:
        raise SingularBlockError("missing structural pivot at column 0")
    upper = _upper_counts(indptr, indices)
    diag_idx = indptr[:-1] + upper - 1
    bad = np.flatnonzero((upper == 0) | (indices[np.maximum(diag_idx, 0)] != np.arange(n)))
    if bad.size:
        raise SingularBlockError(f"missing structural pivot at column {int(bad[0])}")
    # one candidate step per strict-upper entry, in data (column-major)
    # order — the traversal order of getrf_g_v1
    rows_d = indices
    cols_d = np.repeat(np.arange(n, dtype=np.int64), np.diff(indptr))
    strict = np.flatnonzero(rows_d < cols_d)
    step_t = rows_d[strict]
    step_col = cols_d[strict]
    src, dst, seg = _plan_steps(
        step_t, step_col, diag_idx + 1, indptr[1:], indices,
        _colkeys(indptr, indices, block.nrows), block.nrows,
    )
    keep = np.flatnonzero(seg > 0)
    seg_ptr = np.zeros(keep.size + 1, dtype=np.int64)
    np.cumsum(seg[keep], out=seg_ptr[1:])
    col_step_ptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(step_col[keep], minlength=n), out=col_step_ptr[1:])
    return GETRFPlan(
        col_step_ptr=col_step_ptr,
        piv=strict[keep],
        seg_ptr=seg_ptr,
        dst=dst,
        src=src,
        diag_idx=diag_idx,
        below_lo=diag_idx + 1,
        below_hi=indptr[1:].astype(np.int64, copy=False),
    )


def run_getrf_plan(
    plan: GETRFPlan, block: CSCMatrix, *, pivot_floor: float = 0.0
) -> int:
    """Execute a planned GETRF in place; returns the replaced-pivot count."""
    data = block.data
    scale = (float(np.abs(data).max()) if data.size else 0.0) or 1.0
    replaced = 0
    csp = plan.col_step_ptr
    piv, seg_ptr = plan.piv, plan.seg_ptr
    dst, src = plan.dst, plan.src
    for j in range(plan.diag_idx.size):
        for i in range(csp[j], csp[j + 1]):
            xt = data[piv[i]]
            if xt == 0.0:
                continue
            s, e = seg_ptr[i], seg_ptr[i + 1]
            data[dst[s:e]] -= data[src[s:e]] * xt
        dpos = plan.diag_idx[j]
        piv_v, rep = _fix_pivot(float(data[dpos]), pivot_floor, scale)
        replaced += rep
        data[dpos] = piv_v
        lo, hi = plan.below_lo[j], plan.below_hi[j]
        if hi > lo:
            data[lo:hi] /= piv_v
    return replaced


# ----------------------------------------------------------------------
# Plan cache
# ----------------------------------------------------------------------
_MISSING = object()


class PlanCache:
    """Thread-safe lazy cache of execution plans, keyed by block slots.

    Patterns are immutable after symbolic factorisation, so a plan built
    for a ``(kernel role, block slots)`` key stays valid for the life of
    the block structure — including across :meth:`Factorization.refactorize`
    calls, which re-inject values into the same pattern.

    Reads are lock-free (a dict read is atomic under the GIL); builds are
    raced optimistically and resolved with ``setdefault``, so two workers
    may occasionally build the same plan but never see a torn one.
    """

    def __init__(self, *, ssssm_entry_limit: int | None = 4_000_000) -> None:
        self._plans: dict = {}
        self._lock = threading.Lock()
        #: per-task cap on SSSSM scatter-map entries (memory valve)
        self.ssssm_entry_limit = ssssm_entry_limit
        #: number of builder invocations (≥ cache size; lets tests assert
        #: that refactorize reuses every plan instead of rebuilding)
        self.builds = 0

    def get(self, key, builder):
        """The cached plan for ``key``, building it via ``builder()`` on a
        miss.  A cached ``None`` (plan declined, e.g. over the entry
        limit) is returned as ``None`` without rebuilding."""
        plan = self._plans.get(key, _MISSING)
        if plan is not _MISSING:
            return plan
        plan = builder()
        with self._lock:
            self.builds += 1
            return self._plans.setdefault(key, plan)

    def __len__(self) -> int:
        return len(self._plans)

    @property
    def nbytes(self) -> int:
        """Total index-array bytes held by the cached plans."""
        return sum(p.nbytes for p in self._plans.values() if p is not None)
