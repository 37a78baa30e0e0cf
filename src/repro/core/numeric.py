"""Numeric factorisation: task kernels, selection features and the
sequential entry point.

Executes the task DAG on the blocked matrix *in place*: after
:func:`factorize`, every diagonal block holds its LU factors (unit-lower
``L`` implicit, ``U`` on and above the diagonal), blocks below the
diagonal hold ``L``, blocks above hold ``U``.

Execution follows the synchronisation-free discipline of Section 4.4: a
ready-heap ordered by priority (earlier elimination step first — the
critical path — then kernel class), counters per task, counter decrements
on completion.  The counters and heap live in
:class:`repro.runtime.scheduler.SchedulerCore`, the drain loop in
:func:`repro.runtime.executor.execute`; this module supplies the per-task
work (:func:`task_features`, :func:`execute_task`) that the executor's
factor body runs, and :func:`factorize`, the 1×1 lane shape.  The
threaded, distributed and hybrid engines are the 1×T, P×1 and P×T
shapes of the same executor, and :mod:`repro.runtime.simulator` models
the protocol in virtual time — all replay the same DAG.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..kernels.base import Workspace
from ..kernels.compress import CompressPolicy, try_compress
from ..runtime.scheduler import EventRecorder, SchedulerCore
from ..kernels.plans import (
    PlanCache,
    build_gessm_plan,
    build_getrf_plan,
    build_ssssm_plan,
    build_tstrf_plan,
    rebase_ssssm_plan,
    run_gessm_plan,
    run_getrf_plan,
    run_ssssm_plan,
    run_ssssm_plan_arena,
    run_tstrf_plan,
)
from ..kernels.registry import KernelType, get_kernel, plan_capable
from ..kernels.selector import SelectorPolicy, TaskFeatures
from ..sparse.blockrep import CompressedBlock, lr_profit_cap
from .blocking import BlockMatrix
from .dag import Task, TaskDAG, TaskType

__all__ = [
    "NumericOptions",
    "FactorizeStats",
    "factorize",
    "task_features",
    "execute_task",
    "resolve_plan_cache",
    "resolve_compress",
]

_TTYPE_TO_KTYPE = {
    TaskType.GETRF: KernelType.GETRF,
    TaskType.GESSM: KernelType.GESSM,
    TaskType.TSTRF: KernelType.TSTRF,
    TaskType.SSSSM: KernelType.SSSSM,
}


@dataclass
class NumericOptions:
    """Configuration of the numeric phase.

    Attributes
    ----------
    selector:
        Kernel-selection policy (decision trees by default; a fixed
        baseline for the Fig. 14 ablation).
    pivot_floor:
        Relative static-pivot replacement threshold: a pivot smaller in
        magnitude than ``pivot_floor · max|block|`` is replaced by that
        bound with matching sign (SuperLU GESP policy).  0 disables the
        replacement and raises on exact zeros.
    use_plans:
        Execute the sparse-addressing kernel variants through cached
        fixed-pattern execution plans (:mod:`repro.kernels.plans`).
        Planned execution is bit-identical to the unplanned kernels; the
        flag exists for the Fig. 14-style planned-vs-unplanned ablation.
    plan_entry_limit:
        Per-task cap on SSSSM scatter-map entries; products whose plan
        would exceed it fall back to unplanned execution (memory valve).
        ``None`` removes the cap.
    compress_tol:
        Relative spectral tolerance for the low-rank block overlay
        (:class:`~repro.sparse.blockrep.CompressedBlock`).  0 — the default —
        disables compression entirely: no overlay is consulted or
        written, and every engine is bit-identical to the
        pre-compression code path.
    compress_min_order:
        Smallest ``min(m, n)`` a GESSM/TSTRF output block must reach
        before a compression attempt (small blocks never amortise the
        SVD).
    """

    selector: SelectorPolicy = field(default_factory=SelectorPolicy.default)
    pivot_floor: float = 1e-12
    use_plans: bool = True
    plan_entry_limit: int | None = 4_000_000
    compress_tol: float = 0.0
    compress_min_order: int = 32


@dataclass
class FactorizeStats:
    """Per-run accounting of every engine: task counts, chosen kernel
    versions, timings, lane shape and message traffic.

    ``seconds_total`` is the drain's wall time (summed over ranks on a
    distributed run) and ``seconds_by_type`` the kernel time per task
    type.  ``tasks_per_proc``, ``messages_sent`` and
    ``block_bytes_sent`` are filled by the distributed engines.
    """

    kernel_choices: dict[int, str] = field(default_factory=dict)
    tasks_executed: int = 0
    seconds_total: float = 0.0
    seconds_by_type: dict[str, float] = field(default_factory=dict)
    flops_total: int = 0
    pivots_replaced: int = 0
    planned_tasks: int = 0
    plan_bytes: int = 0
    blocks_compressed: int = 0
    lr_value_bytes: int = 0
    n_workers: int = 1
    n_procs: int = 1
    tasks_per_proc: list[int] = field(default_factory=list)
    messages_sent: int = 0
    block_bytes_sent: float = 0.0
    max_ready_depth: int = 0

    def merge(self, rank: FactorizeStats) -> None:
        """Fold one rank's stats in (the distributed master's gather)."""
        self.kernel_choices.update(rank.kernel_choices)
        self.tasks_executed += rank.tasks_executed
        self.tasks_per_proc.append(rank.tasks_executed)
        self.seconds_total += rank.seconds_total
        for key, sec in rank.seconds_by_type.items():
            self.seconds_by_type[key] = self.seconds_by_type.get(key, 0.0) + sec
        for name in ("flops_total", "pivots_replaced", "planned_tasks",
                     "plan_bytes", "blocks_compressed", "lr_value_bytes",
                     "messages_sent", "block_bytes_sent"):
            setattr(self, name, getattr(self, name) + getattr(rank, name))
        self.max_ready_depth = max(self.max_ready_depth, rank.max_ready_depth)

    def version_histogram(self) -> dict[str, int]:
        """Count of executed tasks per ``TYPE/VERSION`` label."""
        out: dict[str, int] = {}
        for label in self.kernel_choices.values():
            out[label] = out.get(label, 0) + 1
        return out


def _compressed(f, bi: int, bj: int):
    """The low-rank overlay of block ``(bi, bj)`` if the structure keeps
    one (``BlockMatrix`` and the distributed ``_LocalView`` both do);
    ``None`` otherwise.  ``getattr``-based so hand-built test doubles
    without an overlay keep working."""
    get = getattr(f, "compressed_block", None)
    return get(bi, bj) if get is not None else None


def _ssssm_operand(f, bi: int, bj: int):
    """The representation an SSSSM consumer should multiply with: the
    low-rank overlay when present, else the exact CSC block.  On remote
    ranks only the overlay may exist (the transport shipped U/V, not the
    CSC arrays)."""
    cb = _compressed(f, bi, bj)
    return cb if cb is not None else f.block(bi, bj)


def task_features(f: BlockMatrix, task: Task) -> TaskFeatures:
    """Structural features of a task for the decision-tree selector.

    SSSSM operands are looked up through the representation layer:
    compressed operands contribute their exact-payload ``nnz`` (shipped
    as ``src_nnz`` with the factors, so local and remote ranks compute
    identical features) plus the ``lr_operands``/``rank`` features the
    low-rank branches of the tree split on.
    """
    target = f.block(task.bi, task.bj)
    assert target is not None
    if task.ttype == TaskType.GETRF:
        return TaskFeatures(
            nnz_a=target.nnz,
            flops=task.flops,
            n=target.ncols,
            density=target.density,
        )
    if task.ttype in (TaskType.GESSM, TaskType.TSTRF):
        diag = f.block(task.k, task.k)
        assert diag is not None
        return TaskFeatures(
            nnz_a=diag.nnz,
            nnz_b=target.nnz,
            flops=task.flops,
            n=diag.ncols,
            density=target.density,
        )
    a_rep = _ssssm_operand(f, task.bi, task.k)
    b_rep = _ssssm_operand(f, task.k, task.bj)
    assert a_rep is not None and b_rep is not None
    a_rank = a_rep.rank if isinstance(a_rep, CompressedBlock) else 0
    b_rank = b_rep.rank if isinstance(b_rep, CompressedBlock) else 0
    return TaskFeatures(
        nnz_a=a_rep.nnz,
        nnz_b=b_rep.nnz,
        flops=task.flops,
        n=a_rep.ncols,
        density=target.density,
        lr_operands=int(a_rank > 0) + int(b_rank > 0),
        rank=max(a_rank, b_rank),
    )


def resolve_plan_cache(f: BlockMatrix, options: NumericOptions) -> PlanCache | None:
    """The plan cache of this block structure, or ``None`` with plans off.

    The cache lives on the :class:`BlockMatrix` (created on first use) so
    plans follow the pattern they address — shared by every engine that
    factorises the same structure and reused across refactorisations.
    """
    if not options.use_plans:
        return None
    cache = f.plan_cache
    if cache is None:
        cache = f.plan_cache = PlanCache(ssssm_entry_limit=options.plan_entry_limit)
    return cache


def resolve_compress(options: NumericOptions) -> CompressPolicy | None:
    """The compression policy implied by the options, or ``None`` when
    compression is off (``compress_tol <= 0``) — the default path, where
    ``execute_task`` never touches the overlay machinery."""
    if options.compress_tol <= 0.0:
        return None
    tree = options.selector.trees.get(KernelType.COMPRESS)
    return CompressPolicy(
        tol=options.compress_tol,
        min_order=options.compress_min_order,
        tree=tree,
    )


def _maybe_compress(f, task: Task, policy: CompressPolicy) -> None:
    """Try to install a low-rank overlay for a just-computed GESSM/TSTRF
    panel block.  Runs inside the caller's write-lock window for the
    target slot, so the RaceChecker still sees a single writer; the
    exact CSC payload is left untouched (the overlay is additive)."""
    target = f.block(task.bi, task.bj)
    if target is None:
        return
    m, n = target.shape
    cap = lr_profit_cap(m, n, target.nnz)
    feats = TaskFeatures(
        nnz_a=target.nnz, n=min(m, n), density=target.density, rank=cap
    )
    cb = try_compress(target, policy, feats)
    if cb is not None:
        f.set_compressed(task.bi, task.bj, cb.u, cb.v, src_nnz=cb.src_nnz)


def _try_planned(
    f: BlockMatrix, task: Task, ktype: KernelType, plans: PlanCache, pivot_floor: float
) -> int | None:
    """Execute a task through its cached execution plan.

    Returns the replaced-pivot count, or ``None`` when no plan applies
    (SSSSM declined over the entry limit) — the caller falls back to the
    unplanned kernel.  Plans are keyed by the storage slots of the
    participating blocks: patterns are immutable post-symbolic, so a slot
    identifies a pattern for the life of the structure.

    On an arena-backed structure the SSSSM scatter maps are rebased to
    **slab-global** offsets and executed directly on the shared value
    slab (same indexing order — bit-identical); distributed workers
    operate on a :class:`~repro.runtime.distributed._LocalView` without
    an arena and keep the block-local form.
    """
    target = f.block(task.bi, task.bj)
    if ktype is KernelType.GETRF:
        slot = f.block_slot(task.bi, task.bj)
        plan = plans.get(("getrf", slot), lambda: build_getrf_plan(target))
        return run_getrf_plan(plan, target, pivot_floor=pivot_floor)
    if ktype is KernelType.GESSM or ktype is KernelType.TSTRF:
        diag = f.block(task.k, task.k)
        key = (
            "gessm" if ktype is KernelType.GESSM else "tstrf",
            f.block_slot(task.k, task.k),
            f.block_slot(task.bi, task.bj),
        )
        if ktype is KernelType.GESSM:
            plan = plans.get(key, lambda: build_gessm_plan(diag, target))
            run_gessm_plan(plan, diag, target)
        else:
            plan = plans.get(key, lambda: build_tstrf_plan(diag, target))
            run_tstrf_plan(plan, diag, target)
        return 0
    a_blk = f.block(task.bi, task.k)
    b_blk = f.block(task.k, task.bj)
    sa = f.block_slot(task.bi, task.k)
    sb = f.block_slot(task.k, task.bj)
    sc = f.block_slot(task.bi, task.bj)
    arena = getattr(f, "arena", None)
    if arena is not None:
        plan = plans.get(
            ("ssssm@arena", sa, sb, sc),
            lambda: rebase_ssssm_plan(
                build_ssssm_plan(
                    target, a_blk, b_blk, entry_limit=plans.ssssm_entry_limit
                ),
                int(arena.val_off[sa]),
                int(arena.val_off[sb]),
                int(arena.val_off[sc]),
            ),
        )
        if plan is None:
            return None
        run_ssssm_plan_arena(plan, arena.data)
        return 0
    plan = plans.get(
        ("ssssm", sa, sb, sc),
        lambda: build_ssssm_plan(
            target, a_blk, b_blk, entry_limit=plans.ssssm_entry_limit
        ),
    )
    if plan is None:
        return None
    run_ssssm_plan(plan, target, a_blk, b_blk)
    return 0


def execute_task(
    f: BlockMatrix,
    task: Task,
    version: str,
    ws: Workspace,
    *,
    pivot_floor: float = 0.0,
    plans: PlanCache | None = None,
    compress: CompressPolicy | None = None,
) -> tuple[int, bool]:
    """Execute one task, preferring a cached execution plan.

    Returns ``(replaced_pivots, planned)`` — the GESP diagnostic plus
    whether a plan (rather than the unplanned kernel) ran.  This is the
    per-task entry point of the executor's factor body, shared by every
    engine.

    With a :class:`~repro.kernels.compress.CompressPolicy` (``None`` by
    default — the bit-identical path), two extra branches activate:
    SSSSM tasks whose operands carry a low-rank overlay route to the
    ``LR_V1``/``LR_V2`` kernels (never the plan path — plans address
    exact patterns), and a just-finished GESSM/TSTRF panel is offered to
    the compressor before the task completes, inside the same write-lock
    window.
    """
    ktype = _TTYPE_TO_KTYPE[task.ttype]
    if ktype is KernelType.SSSSM:
        a_cb = _compressed(f, task.bi, task.k)
        b_cb = _compressed(f, task.k, task.bj)
        if a_cb is not None or b_cb is not None:
            target = f.block(task.bi, task.bj)
            assert target is not None
            a_op = a_cb if a_cb is not None else f.block(task.bi, task.k)
            b_op = b_cb if b_cb is not None else f.block(task.k, task.bj)
            if not version.startswith("LR_"):
                # a fixed (ablation) selector never emits the low-rank
                # versions; the operand representation decides for it
                version = "LR_V2" if (a_cb is not None and b_cb is not None) else "LR_V1"
            get_kernel(ktype, version)(target, a_op, b_op, ws)
            return 0, False
    if plans is not None and plan_capable(ktype, version):
        replaced = _try_planned(f, task, ktype, plans, pivot_floor)
        if replaced is not None:
            if compress is not None and task.ttype in (TaskType.GESSM, TaskType.TSTRF):
                _maybe_compress(f, task, compress)
            return replaced, True
    kernel = get_kernel(ktype, version)
    target = f.block(task.bi, task.bj)
    assert target is not None
    if task.ttype == TaskType.GETRF:
        return int(kernel(target, ws, pivot_floor=pivot_floor) or 0), False
    if task.ttype in (TaskType.GESSM, TaskType.TSTRF):
        diag = f.block(task.k, task.k)
        kernel(diag, target, ws)
        if compress is not None:
            _maybe_compress(f, task, compress)
    else:
        a_blk = f.block(task.bi, task.k)
        b_blk = f.block(task.k, task.bj)
        kernel(target, a_blk, b_blk, ws)
    return 0, False


def factorize(
    f: BlockMatrix,
    dag: TaskDAG,
    options: NumericOptions | None = None,
    *,
    recorder: EventRecorder | None = None,
    checker=None,
) -> FactorizeStats:
    """Factorise the blocked matrix in place by replaying the DAG.

    Tasks are drawn from the shared scheduler core's ready-heap with
    priority ``(k, task-type, tid)`` — the earliest elimination step
    first, which keeps the critical path moving (the paper: "each
    process always selects the most critical of the tasks to be
    computed").  This is the 1×1 lane shape of
    :func:`repro.runtime.executor.execute`: the drain runs on the
    calling thread.  Pass an :class:`~repro.runtime.scheduler.EventRecorder`
    to capture task/ready-depth events for Chrome-trace export, or a
    :class:`~repro.devtools.racecheck.RaceChecker` (``checker``) to
    audit the counter protocol as it runs.
    """
    from ..runtime.executor import FactorBody, execute

    body = FactorBody(f, dag.tasks, options or NumericOptions())
    core = SchedulerCore.from_dag(dag, recorder=recorder)
    return body.finish(execute(core, body, checker=checker, engine="sequential"))
