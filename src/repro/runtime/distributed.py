"""Distributed-memory engines: the P×1 and P×T lane shapes of the executor.

The closest in-repo analogue of PanguLU's MPI execution: the run is
spread over ``n_procs`` ranks, each of which

* initially holds **only the blocks it owns** under the configured
  :class:`~repro.core.placement.PlacementPolicy` (2D block-cyclic by
  default; distributed memory, not shared);
* executes the tasks targeting its blocks, picking the highest-priority
  (earliest elimination step) ready task — the Section 4.4 discipline,
  run by a rank-local :class:`~repro.runtime.scheduler.SchedulerCore`
  restricted to the rank's own tasks;
* on completing a task, **sends its result** to exactly the ranks that
  consume it, piggybacking the dependency-counter decrement on the data
  message (the paper's "sends the sub-matrix block to the other required
  process", Fig. 10 step 2c);
* decrements counters and releases tasks on receipt (Fig. 10 step 3b) —
  no barriers, no global synchronisation of any kind.

Each rank is one :func:`repro.runtime.executor.execute` call with the
rank's endpoint: a receiver thread absorbs inbound messages while
``n_threads`` lanes drain the rank's core (``n_threads > 1`` is the
``"hybrid"`` engine, HYLU-style mixed parallelism).  Both phases share
one rank entry point (:func:`_rank_main`) and one master routine
(:func:`_run_ranks`); they differ only in the task body and in what a
rank ships home — factored blocks, or solved ``x`` segments.

The message substrate is a pluggable :class:`~repro.runtime.transports.
Transport`: by default one OS process per rank with ``multiprocessing``
queues (block payloads are the raw ``(indptr, indices, data)`` arrays —
on the arena layout these are zero-copy slab slices, and the wire-byte
accounting is unchanged because a view's ``nbytes`` is the slice's size);
the in-process :class:`~repro.runtime.transports.LoopbackTransport` runs
the identical protocol on threads for deterministic testing and fault
injection.

This executor is about protocol fidelity, not speed: Python processes
pay pickling costs that real MPI ranks do not.
"""

from __future__ import annotations

import logging
import time

import numpy as np

from ..core.blocking import BlockMatrix
from ..core.dag import TaskDAG
from ..core.numeric import FactorizeStats, NumericOptions
from ..core.placement import CyclicPlacement, PlacementPolicy
from ..core.tsolve import _check_rhs, tsolve_core
from ..core.tsolve_dag import TSolveDAG, TSolveTaskType
from ..kernels.plans import PlanCache
from ..sparse.blockrep import CompressedBlock
from ..sparse.csc import CSCMatrix
from .executor import Drain, FactorBody, SolveBody, execute, solve_stats
from .scheduler import EventRecorder, SchedulerCore
from .transports import (
    MultiprocessingTransport,
    Transport,
    TransportStopped,
    TransportTimeout,
)

__all__ = ["factorize_distributed", "tsolve_distributed"]

logger = logging.getLogger(__name__)


class _LocalView:
    """A rank's partial view of the block matrix.

    Quacks like :class:`BlockMatrix` for the task bodies
    (``block``/``block_slot``/``num_blocks``/``block_slice``, the
    low-rank overlay, a plan cache), but holds only owned + received
    blocks; touching an absent block is a protocol bug and raises
    immediately.
    """

    def __init__(
        self, boundaries: np.ndarray, owned: list[tuple[int, int, CSCMatrix]]
    ) -> None:
        self.boundaries = np.asarray(boundaries, dtype=np.int64)
        self.nb = self.boundaries.size - 1
        self.n = int(self.boundaries[-1])
        self.plan_cache = None  # rank-local: plans address blocks held here
        self._blocks: dict[tuple[int, int], CSCMatrix] = {}
        # storage slots: owned blocks first, so the write slots (tasks
        # only write owned blocks) are 0 … num_blocks-1
        self._slots: dict[tuple[int, int], int] = {}
        for bi, bj, blk in owned:
            self.add(bi, bj, blk)
        self._owned = frozenset(self._slots)
        # low-rank overlay, same contract as BlockMatrix.lr_overlay: for
        # owned blocks it sits *beside* the exact CSC data; for received
        # panels it may be the only representation (the owner shipped
        # U/V instead of the CSC arrays)
        self._compressed: dict[tuple[int, int], CompressedBlock] = {}

    def add(self, bi: int, bj: int, blk: CSCMatrix) -> None:
        self._blocks[(bi, bj)] = blk
        self._slots.setdefault((bi, bj), len(self._slots))

    @property
    def num_blocks(self) -> int:
        """Blocks this rank owns (received copies excluded)."""
        return len(self._owned)

    def owned_blocks(self) -> list[tuple[int, int, CSCMatrix]]:
        return [(bi, bj, self._blocks[(bi, bj)]) for bi, bj in self._owned]

    def compressed_block(self, bi: int, bj: int) -> CompressedBlock | None:
        """The low-rank overlay of ``(bi, bj)``, or ``None``."""
        return self._compressed.get((bi, bj))

    def set_compressed(
        self, bi: int, bj: int, u: np.ndarray, v: np.ndarray, *, src_nnz: int
    ) -> CompressedBlock:
        """Install a ``U @ V.T`` overlay for block ``(bi, bj)``."""
        cb = CompressedBlock(
            shape=(self.block_order(bi), self.block_order(bj)),
            u=u, v=v, src_nnz=int(src_nnz),
        )
        self._compressed[(bi, bj)] = cb
        return cb

    def compression_stats(self) -> dict[str, int]:
        """Overlays this rank computed itself (received copies would
        double-count the owner's work across the pool)."""
        mine = [cb for key, cb in self._compressed.items() if key in self._owned]
        return {
            "blocks_compressed": len(mine),
            "lr_value_bytes": sum(cb.value_nbytes for cb in mine),
        }

    def block(self, bi: int, bj: int) -> CSCMatrix:
        try:
            return self._blocks[(bi, bj)]
        except KeyError:
            raise RuntimeError(
                f"worker touched block ({bi},{bj}) it neither owns nor received"
            ) from None

    def block_slot(self, bi: int, bj: int) -> int:
        """Rank-local storage slot, stable and unique per block held —
        the lock index and plan cache key, exactly like a real slot."""
        return self._slots[(bi, bj)]

    def block_order(self, b: int) -> int:
        """Row/column count of block index ``b``."""
        return int(self.boundaries[b + 1] - self.boundaries[b])

    def block_slice(self, b: int) -> slice:
        """Global row/column slice covered by block index ``b``."""
        return slice(int(self.boundaries[b]), int(self.boundaries[b + 1]))


def _owned_blocks(f: BlockMatrix, placement: PlacementPolicy, n_procs: int):
    """Each rank's ``(bi, bj, block)`` list under ``placement``."""
    owned: list[list[tuple[int, int, CSCMatrix]]] = [[] for _ in range(n_procs)]
    for bj in range(f.nb):
        rows, blocks = f.blocks_in_column(bj)
        for bi, blk in zip(rows, blocks):
            owned[placement.owner(int(bi), bj)].append((int(bi), bj, blk))
    return owned


def _resolve_placement(placement, n_procs: int, n_threads: int) -> PlacementPolicy:
    if n_procs < 1:
        raise ValueError("need at least one process")
    if n_threads < 1:
        raise ValueError("need at least one thread per rank")
    if placement is None:
        return CyclicPlacement(n_procs)
    if placement.nprocs != n_procs:
        raise ValueError(
            f"placement {placement.name!r} was built for "
            f"{placement.nprocs} ranks, but {n_procs} were requested"
        )
    return placement


def _factor_rank(rank: int, spec: tuple, recorder):
    """Core, body and report of one factorisation rank.  The report
    ships the rank's factored owned blocks home with its stats; owners
    keep the exact CSC arrays, so the gathered factors are
    compression-free regardless of ``compress_tol``."""
    boundaries, owned, dag, owner, options = spec
    view = _LocalView(boundaries, owned)
    core = SchedulerCore.from_dag(
        dag, owned=np.flatnonzero(owner == rank), recorder=recorder, lane=rank,
    )
    body = FactorBody(view, dag.tasks, options, owner=owner, rank=rank)

    def report(drain: Drain):
        blocks = [(bi, bj, blk.data) for bi, bj, blk in view.owned_blocks()]
        return body.finish(drain), blocks

    return core, body, report


def _solve_rank(rank: int, spec: tuple, recorder):
    """Core, body and report of one triangular-solve rank.  The report
    ships home the ``x`` segments the rank finished (its DIAG_B tasks)."""
    boundaries, owned, tdag, b, use_plans = spec
    view = _LocalView(boundaries, owned)
    y = np.array(b, dtype=np.float64)
    x = np.zeros_like(y)
    my_tasks = np.flatnonzero(tdag.owner == rank)
    core = tsolve_core(tdag, view.nb, owned=my_tasks, recorder=recorder, lane=rank)
    body = SolveBody(
        view, tdag, y, x, PlanCache() if use_plans else None,
        owner=tdag.owner, rank=rank,
    )

    def report(drain: Drain):
        xparts = [
            (int(tdag.target[t]), np.array(x[view.block_slice(int(tdag.target[t]))]))
            for t in my_tasks
            if int(tdag.kinds[t]) == TSolveTaskType.DIAG_B
        ]
        return drain, xparts

    return core, body, report


def _rank_main(
    rank: int, endpoint, setup, spec: tuple, n_threads: int, trace: bool,
    validate: bool,
) -> None:
    """One rank of either phase: build its core and body, drain them
    against the endpoint, post the report to the master.  With
    ``validate`` a rank-local :class:`~repro.devtools.racecheck.
    RaceChecker` audits the counter protocol; a violation is posted as
    this rank's failure."""
    try:
        checker = None
        if validate:
            from ..devtools.racecheck import RaceChecker

            checker = RaceChecker(label=f"rank {rank}")
        recorder = EventRecorder() if trace else None
        core, body, report = setup(rank, spec, recorder)
        drain = execute(
            core, body, n_threads=n_threads, endpoint=endpoint,
            checker=checker, engine=f"rank {rank}",
        )
        endpoint.post_result(("ok", rank, report(drain), recorder))
    except TransportStopped:  # master tore the pool down; exit quietly
        return
    except BaseException as exc:
        try:
            endpoint.post_result(("error", rank, repr(exc)))
        except (OSError, ValueError, TransportStopped) as post_exc:
            # pragma: no cover - result channel gone (master died or
            # closed the queue); the original failure would otherwise
            # vanish, so log both before exiting
            logger.error(
                "rank %d failed with %r and could not report it "
                "(result channel gone: %r)", rank, exc, post_exc,
            )


def _run_ranks(
    setup, specs: list[tuple], *, what: str, n_threads: int,
    transport: Transport | None, timeout: float,
    recorder: EventRecorder | None, validate: bool,
) -> list:
    """Start one rank per spec, gather their reports (in rank order) and
    merge their trace events into ``recorder``.  A failed rank can no
    longer feed its consumers, so the first error — or a missing result
    after ``timeout`` — tears the whole pool down and raises."""
    transport = transport or MultiprocessingTransport()
    transport.start(
        len(specs), _rank_main,
        lambda rank: (setup, specs[rank], n_threads, recorder is not None, validate),
    )
    reports: list = [None] * len(specs)
    errors: list[str] = []
    for _ in specs:
        try:
            msg = transport.get_result(timeout)
        except TransportTimeout as exc:
            transport.terminate()
            transport.join(timeout=5)
            raise RuntimeError(
                f"distributed {what} timed out after {timeout}s "
                f"(ranks no longer alive: {exc.dead_ranks}) — "
                "worker crash or deadlock"
            ) from None
        if msg[0] == "error":
            errors.append(f"rank {msg[1]}: {msg[2]}")
            transport.terminate()
            break
        _, rank, reports[rank], rank_recorder = msg
        if recorder is not None and rank_recorder is not None:
            recorder.merge(rank_recorder)
    transport.join(timeout=30)
    if errors:
        raise RuntimeError("; ".join(errors))
    return reports


def factorize_distributed(
    f: BlockMatrix,
    dag: TaskDAG,
    n_procs: int = 2,
    *,
    options: NumericOptions | None = None,
    timeout: float = 300.0,
    transport: Transport | None = None,
    recorder: EventRecorder | None = None,
    validate: bool = False,
    placement: PlacementPolicy | None = None,
    n_threads: int = 1,
) -> FactorizeStats:
    """Factorise ``f`` in place across ``n_procs`` ranks.

    Tasks and block storage follow the block→rank map of ``placement``
    (a fitted :class:`~repro.core.placement.PlacementPolicy`; ``None``
    selects the paper's 2D block-cyclic rule).  The load balancer is not
    applied here: migrating a task away from its block's owner would
    require remote writes, which the message protocol — like PanguLU's —
    does not do for targets.  With ``n_threads > 1`` each rank drives
    that many compute lanes over its scheduler core (the ``"hybrid"``
    engine).  Finished panels travel as their CSC arrays, or as their
    low-rank factors when ``options.compress_tol > 0`` compressed them.

    ``transport`` selects the message substrate: the default
    :class:`~repro.runtime.transports.MultiprocessingTransport` (one OS
    process per rank) or a
    :class:`~repro.runtime.transports.LoopbackTransport` (threads in this
    process, deterministic, fault-injectable).  ``timeout`` bounds the
    wait for each rank's result; a dead or hung rank (failure injection,
    OOM kill, …) terminates the remaining pool and raises instead of
    hanging the caller.  Pass a ``recorder`` to collect per-rank task and
    message send/recv events from the real run (merged into it on
    success) for Chrome-trace export.  With ``validate`` each rank runs
    a local :class:`~repro.devtools.racecheck.RaceChecker`; protocol
    violations (duplicate completions, double writes, dropped messages)
    surface as that rank's error instead of silent corruption.
    """
    options = options or NumericOptions()
    placement = _resolve_placement(placement, n_procs, n_threads)
    owned = _owned_blocks(f, placement, n_procs)
    owner = np.asarray(
        [placement.owner(t.bi, t.bj) for t in dag.tasks], dtype=np.int64
    )
    reports = _run_ranks(
        _factor_rank,
        [(f.boundaries, owned[r], dag, owner, options) for r in range(n_procs)],
        what="factorisation", n_threads=n_threads, transport=transport,
        timeout=timeout, recorder=recorder, validate=validate,
    )
    stats = FactorizeStats(n_workers=n_threads, n_procs=n_procs)
    for rank_stats, blocks in reports:
        stats.merge(rank_stats)
        for bi, bj, data in blocks:
            f.block(bi, bj).data[...] = data
    return stats


def tsolve_distributed(
    f: BlockMatrix,
    tdag: TSolveDAG,
    b,
    n_procs: int = 2,
    *,
    use_plans: bool = True,
    timeout: float = 300.0,
    transport: Transport | None = None,
    recorder: EventRecorder | None = None,
    validate: bool = False,
    placement: PlacementPolicy | None = None,
    n_threads: int = 1,
) -> tuple:
    """Both triangular sweeps across ``n_procs`` ranks.

    ``tdag`` must be the *executable* solve DAG built with this run's
    block→rank owner map (``build_tsolve_dag(f, placement.owner,
    executable=True)``; ``placement=None`` selects the paper's 2D
    block-cyclic rule) — diag solves run on the diagonal block's owner,
    updates on the off-diagonal block's owner, so factor blocks stay put
    and only RHS segments travel.  Messages carry real segment bytes
    (``arr.nbytes``), accounted in the returned stats; the write-sequence
    guard of :class:`~repro.runtime.executor.SolveBody` keeps
    out-of-order deliveries harmless, so the gathered solution is
    bit-identical to :func:`repro.core.tsolve.tsolve_sequential`.  With
    ``n_threads > 1`` each rank drains its scheduler core with that many
    lanes (the ``"hybrid"`` engine).  ``transport`` / ``timeout`` /
    ``recorder`` / ``validate`` behave exactly as in
    :func:`factorize_distributed`.  Returns ``(x, TSolveStats)``.
    """
    placement = _resolve_placement(placement, n_procs, n_threads)
    if tdag.seq_y is None:
        raise ValueError("tsolve_distributed needs an executable solve DAG "
                         "(build_tsolve_dag(..., executable=True))")
    y0 = _check_rhs(f.n, b)
    owned = _owned_blocks(f, placement, n_procs)
    t_start = time.perf_counter()
    reports = _run_ranks(
        _solve_rank,
        [(f.boundaries, owned[r], tdag, y0, use_plans) for r in range(n_procs)],
        what="tsolve", n_threads=n_threads, transport=transport,
        timeout=timeout, recorder=recorder, validate=validate,
    )
    total = Drain()
    x = np.empty_like(y0)
    filled = np.zeros(f.nb, dtype=bool)
    for drain, xparts in reports:
        total.merge(drain)
        for k, arr in xparts:
            x[f.block_slice(k)] = arr
            filled[k] = True
    if not np.all(filled):
        raise RuntimeError(
            f"distributed tsolve returned {int(filled.sum())} of {f.nb} "
            "solution segments"
        )
    stats = solve_stats(
        total, y0,
        engine="distributed" if n_threads == 1 else "hybrid",
        n_procs=n_procs, n_workers=n_threads,
    )
    stats.seconds = time.perf_counter() - t_start
    return x, stats
