"""The one executor: every engine is a P×T drain of a scheduler core.

PanguLU's runtime (Section 4.4, Fig. 10) is a single loop — pop the most
critical ready task, run it, decrement the counters of its successors,
and ship the finished block to the ranks that consume it.  This module
is that loop, written once.  :func:`execute` drains one
:class:`~repro.runtime.scheduler.SchedulerCore` with ``n_threads``
compute lanes, plus a receiver thread on a distributed rank; the four
engines are its lane shapes (table in :mod:`repro.runtime.engines`).

What a task *does* is a **body**, one per phase:

* :class:`FactorBody` — kernel selection outside the write window,
  :func:`~repro.core.numeric.execute_task` inside it (one lock per stored
  block), finished panels shipped as their CSC triplet or, when
  compressed, their low-rank factors;
* :class:`SolveBody` — :func:`~repro.core.tsolve.execute_tsolve_task`
  under per-segment locks (``y`` then ``x``), the outgoing segment
  snapshotted while the write locks are held, inbound segments applied
  behind the ``seq_y``/``seq_x`` write-sequence guard.

A body exposes ``locks``, ``owner`` (task → rank, ``None`` in-process)
and the methods ``worker``/``merge`` (per-lane scratch), ``prepare``
(work outside the write window; returns the task's kind and a context
for ``run``), ``slots`` (the write slots the window locks and the
checker claims), ``run`` (the work inside the window; returns
``(dests, payload, nbytes)`` for a result other ranks consume),
``label`` (trace name) and ``absorb`` (apply one inbound message,
returning ``(src_tid, nbytes)``).

The executor owns everything the engines share: the pop/wait/complete
protocol with ``notify(n)`` wake-ups, first-error capture and quiescing,
the receiver thread, the RaceChecker hooks, trace events, the
transport's per-task hook, send accounting, per-kernel timings and the
final deadlock check.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field

import numpy as np

from ..core.dag import TaskType
from ..core.numeric import (
    _TTYPE_TO_KTYPE,
    FactorizeStats,
    execute_task,
    resolve_compress,
    resolve_plan_cache,
    task_features,
)
from ..core.tsolve import (
    _KIND_NAMES,
    _Y_WRITERS,
    TSolveStats,
    execute_tsolve_task,
    tsolve_task_label,
    tsolve_write_slots,
)
from ..kernels.base import Workspace
from ..sparse.csc import CSCMatrix
from .scheduler import WorkerLocal

__all__ = ["Drain", "FactorBody", "SolveBody", "execute", "solve_stats"]

# shared state and its lock (the condition's underlying lock, entered
# directly on the hot path), registered for the `lock-discipline` lint
# rule: these operations only happen inside `with lock:`
__guarded_by__ = {
    "lock": (
        "core.pop", "core.complete", "errors", "total.merge", "body.merge",
    ),
}


def _make_block_locks(n: int) -> list[threading.Lock]:
    """One lock per stored block, serialising concurrent updates to the
    same target.  A separate function so the race-detector tests can
    replace it with no-op locks and prove the checker catches the
    resulting double write."""
    return [threading.Lock() for _ in range(n)]


def _make_segment_locks(n: int) -> list[threading.Lock]:
    """One lock per RHS segment slot (``y`` then ``x``) for the
    triangular solve — the phase-5 counterpart of the per-block locks,
    and the same monkeypatch seam for the race-detector tests."""
    return [threading.Lock() for _ in range(n)]


@dataclass
class Drain:
    """What one :func:`execute` call did: summed over its lanes, shipped
    home by each rank and summed again by the master."""

    __transport_message__ = True

    tasks_executed: int = 0
    seconds_total: float = 0.0
    seconds_by_type: dict[str, float] = field(default_factory=dict)
    messages_sent: int = 0
    bytes_sent: int = 0
    max_ready_depth: int = 0

    def merge(self, other: Drain) -> None:
        self.tasks_executed += other.tasks_executed
        self.seconds_total += other.seconds_total
        for key, sec in other.seconds_by_type.items():
            self.seconds_by_type[key] = self.seconds_by_type.get(key, 0.0) + sec
        self.messages_sent += other.messages_sent
        self.bytes_sent += other.bytes_sent
        self.max_ready_depth = max(self.max_ready_depth, other.max_ready_depth)


#: task type → its name (``Enum.name`` is a slow property on the hot path)
_TTYPE_NAMES = {t: t.name for t in TaskType}


def _consumers(owner: np.ndarray, successors, rank: int) -> list[int]:
    """Ranks other than ``rank`` that own a successor — the destinations
    of a finished task's result (Fig. 10 step 2c)."""
    if len(successors) == 0:
        return []
    ranks = set(owner[np.asarray(successors, dtype=np.int64)].tolist())
    ranks.discard(rank)
    return sorted(ranks)


def _expected_messages(core) -> int:
    """Inbound message count of a rank: each remote task with an owned
    successor sends exactly one, so the receiver's lifetime is fixed."""
    owned = core.owned_mask
    if owned is None:
        return 0
    return sum(
        1 for t in np.flatnonzero(~owned) if owned[core.successors[t]].any()
    )


def execute(
    core,
    body,
    *,
    n_threads: int = 1,
    endpoint=None,
    checker=None,
    engine: str = "scheduler",
) -> Drain:
    """Drain ``core`` by running ``body`` on ``n_threads`` lanes.

    With one lane and no ``endpoint`` the drain runs on the calling
    thread and starts no thread.  Extra lanes are threads sharing the
    core under one condition lock.  With an ``endpoint`` (a distributed
    rank) finished results are sent to their consumer ranks and a
    receiver thread absorbs exactly the expected number of inbound
    messages.  The first exception of any lane or the receiver stops
    every lane and is re-raised once the lanes are joined.  A
    :class:`~repro.devtools.racecheck.RaceChecker` (``checker``) sees
    every pop, write window and completion; ``engine`` names the run in
    the deadlock diagnostic.

    Lane ids follow the engines' conventions: an in-process lane
    reports (checker, trace) as its thread index, a rank as its rank;
    writes inside a multi-lane rank are attributed to the lane.
    """
    if n_threads < 1:
        raise ValueError("need at least one worker")
    lock = threading.Lock()
    cond = threading.Condition(lock)
    errors: list[BaseException] = []
    total = Drain()
    recorder = core.recorder
    lane = core.lane
    # lanes running a task, and whether the receiver still expects
    # messages: with neither, an empty heap means deadlock, not "wait";
    # lanes blocked in cond.wait() — with none, completions wake nobody
    active = idle = 0
    expected = _expected_messages(core) if endpoint is not None else 0
    receiving = expected > 0
    # a lone lane with no receiver shares nothing: no write locks needed,
    # and without a checker nobody asks for the write slots
    shared = n_threads > 1 or receiving
    claims = shared or checker is not None
    t_start = time.perf_counter()

    def release(newly: int) -> None:
        if core.done() or not (active or receiving):
            cond.notify_all()
        elif newly:
            cond.notify(newly)

    def drain(wid: int) -> None:
        nonlocal active, idle
        who = wid if endpoint is None else lane
        writer = wid if n_threads > 1 else lane
        prepare, run, locks = body.prepare, body.run, body.locks
        slots = ()
        local = body.worker()
        mine = Drain()
        by_type = mine.seconds_by_type
        try:
            while True:
                with lock:
                    tid = core.pop()
                    while (tid is None and not errors and not core.done()
                           and (active or receiving)):
                        idle += 1
                        cond.wait()
                        idle -= 1
                        tid = core.pop()
                    if errors or tid is None:
                        return
                    active += 1
                if checker is not None:
                    checker.on_pop(tid, who)
                kind, ctx = prepare(tid)
                if claims:
                    slots = body.slots(tid)
                # any context-manager lock works (the race tests swap in
                # no-op locks); one or two slots per task
                if shared:
                    for s in slots:
                        locks[s].__enter__()
                try:
                    if checker is not None:
                        for s in slots:
                            checker.begin_write(s, tid, writer)
                    try:
                        t0 = time.perf_counter()
                        out = run(tid, ctx, local)
                        t1 = time.perf_counter()
                    finally:
                        if checker is not None:
                            for s in slots:
                                checker.end_write(s, tid, writer)
                finally:
                    if shared:
                        for s in reversed(slots):
                            locks[s].__exit__(None, None, None)
                by_type[kind] = by_type.get(kind, 0.0) + t1 - t0
                if recorder is not None:
                    recorder.task(who, body.label(tid), kind, t0, t1, tid)
                if checker is not None:
                    checker.on_complete(tid, who)
                with lock:
                    active -= 1
                    newly = core.complete(tid)
                    if idle:
                        release(newly)
                if endpoint is None:
                    continue
                endpoint.on_task_executed(core.executed)
                if out is not None:
                    dests, payload, nbytes = out
                    for w in dests:
                        endpoint.send(w, payload)
                        mine.messages_sent += 1
                        mine.bytes_sent += nbytes
                        if recorder is not None:
                            recorder.send(lane, w, tid, nbytes)
        except BaseException as exc:  # first error stops every lane
            with lock:
                errors.append(exc)
                cond.notify_all()
        finally:
            with lock:
                total.merge(mine)
                body.merge(local)

    def receive() -> None:
        nonlocal receiving
        try:
            for _ in range(expected):
                src, nbytes = body.absorb(endpoint.recv())
                if recorder is not None:
                    recorder.recv(lane, int(body.owner[src]), src, nbytes)
                if checker is not None:
                    checker.on_complete(src, lane)
                with lock:
                    newly = core.complete(src)
                    if idle:
                        release(newly)
            with lock:
                receiving = False
                if idle:
                    release(0)
        except BaseException as exc:  # includes TransportStopped
            with lock:
                errors.append(exc)
                cond.notify_all()

    if receiving:
        threading.Thread(target=receive, daemon=True).start()
    pool = [
        threading.Thread(target=drain, args=(wid,), daemon=True)
        for wid in range(1, n_threads)
    ]
    for th in pool:
        th.start()
    drain(0)
    for th in pool:
        th.join()
    if errors:
        raise errors[0]
    if checker is not None:
        checker.final_check(core)
    core.check(engine)  # names the blocked frontier on deadlock
    total.tasks_executed = core.executed
    total.max_ready_depth = core.max_ready_depth
    total.seconds_total = time.perf_counter() - t_start
    return total


# ----------------------------------------------------------------------
# the two task bodies
# ----------------------------------------------------------------------

class FactorBody:
    """Numeric-factorisation tasks over a :class:`~repro.core.blocking.
    BlockMatrix` (or a rank's local view of one).

    ``owner`` maps task id → rank on a distributed run (``None``
    in-process); with it, a finished task's block is shipped to the
    ranks owning its successors — as ``(tid, bi, bj, "csc", indptr,
    indices, data)``, or as ``(tid, bi, bj, "lr", u, v, src_nnz)`` when
    the panel carries a low-rank overlay (``u.nbytes + v.nbytes`` on the
    wire instead of the CSC arrays).
    """

    def __init__(self, f, tasks, options, *, owner=None, rank: int = 0) -> None:
        self.f = f
        self.tasks = tasks
        self.options = options
        self.plans = resolve_plan_cache(f, options)
        self.compress = resolve_compress(options)
        self.locks = _make_block_locks(f.num_blocks)
        self.owner = owner
        self.rank = rank
        self.stats = FactorizeStats()

    def worker(self) -> tuple[Workspace, WorkerLocal]:
        return Workspace(), WorkerLocal()

    def merge(self, local: tuple[Workspace, WorkerLocal]) -> None:
        local[1].merge_into(self.stats)

    def prepare(self, tid: int):
        task = self.tasks[tid]
        ktype = _TTYPE_TO_KTYPE[task.ttype]
        version = self.options.selector.select(ktype, task_features(self.f, task))
        return _TTYPE_NAMES[task.ttype], (ktype, version)

    def slots(self, tid: int) -> tuple[int]:
        task = self.tasks[tid]
        return (self.f.block_slot(task.bi, task.bj),)

    def run(self, tid: int, ctx, local):
        task = self.tasks[tid]
        ktype, version = ctx
        ws, tally = local
        # compression of a finished GESSM/TSTRF panel happens inside
        # execute_task, i.e. inside this write window
        replaced, planned = execute_task(
            self.f, task, version, ws,
            pivot_floor=self.options.pivot_floor, plans=self.plans,
            compress=self.compress,
        )
        tally.count(tid, f"{ktype.value}/{version}", replaced, planned)
        if self.owner is None:
            return None
        dests = _consumers(self.owner, task.successors, self.rank)
        if not dests:
            return None
        # a panel is its block's last writer, so these arrays are final
        cb = self.f.compressed_block(task.bi, task.bj)
        if cb is not None:
            payload = (tid, task.bi, task.bj, "lr", cb.u, cb.v, cb.src_nnz)
            return dests, payload, cb.u.nbytes + cb.v.nbytes
        blk = self.f.block(task.bi, task.bj)
        payload = (tid, task.bi, task.bj, "csc", blk.indptr, blk.indices, blk.data)
        return dests, payload, blk.indptr.nbytes + blk.indices.nbytes + blk.data.nbytes

    def label(self, tid: int) -> str:
        t = self.tasks[tid]
        return f"{t.ttype.name}(k={t.k},{t.bi},{t.bj})"

    def absorb(self, msg) -> tuple[int, int]:
        src, bi, bj, tag = msg[:4]
        f = self.f
        if tag == "lr":
            # low-rank panel: only the overlay exists on this rank — its
            # consumers are SSSSM reads, served straight from U/V
            u, v, src_nnz = msg[4:]
            f.set_compressed(bi, bj, u, v, src_nnz=src_nnz)
            return src, u.nbytes + v.nbytes
        indptr, indices, data = msg[4:]
        # zero-copy wrap: over loopback these are the sender's final
        # panel arrays, over multiprocessing fresh arrays off the queue
        f.add(bi, bj, CSCMatrix.from_views(
            (f.block_order(bi), f.block_order(bj)), indptr, indices, data,
        ))
        return src, indptr.nbytes + indices.nbytes + data.nbytes

    def finish(self, drain: Drain) -> FactorizeStats:
        """The run's :class:`FactorizeStats`: the lanes' tallies plus the
        drain's timings and traffic."""
        stats = self.stats
        stats.seconds_total = drain.seconds_total
        stats.seconds_by_type = drain.seconds_by_type
        stats.max_ready_depth = drain.max_ready_depth
        stats.messages_sent = drain.messages_sent
        stats.block_bytes_sent = drain.bytes_sent
        stats.flops_total = sum(
            self.tasks[t].flops for t in stats.kernel_choices
        )
        if self.plans is not None:
            stats.plan_bytes = self.plans.nbytes
        if self.compress is not None:
            comp = self.f.compression_stats()
            stats.blocks_compressed = comp["blocks_compressed"]
            stats.lr_value_bytes = comp["lr_value_bytes"]
        return stats


class SolveBody:
    """Triangular-solve tasks of an executable solve DAG, writing the
    forward array ``y`` and the backward array ``x`` in place.

    On a distributed run (``owner`` given) each written segment is
    shipped as ``(tid, target, array)``.  Transports order messages only
    per sender, so a stale payload may arrive after a newer write to the
    same segment; the per-task write sequence numbers make receipt
    idempotent — a stale payload still completes its task but no longer
    touches the array.
    """

    def __init__(
        self, f, tdag, y: np.ndarray, x: np.ndarray, plans=None, *,
        owner=None, rank: int = 0,
    ) -> None:
        self.f = f
        self.tdag = tdag
        self.kinds = [_KIND_NAMES[k] for k in tdag.kinds.tolist()]
        self.y = y
        self.x = x
        self.plans = plans
        self.nb = f.nb
        # y slots [0, nb), x slots [nb, 2·nb) — tsolve_write_slots' layout
        self.locks = _make_segment_locks(2 * f.nb)
        self.owner = owner
        self.rank = rank
        # highest write sequence applied per segment (distributed runs)
        self.applied_y = np.full(f.nb, -1, dtype=np.int64)
        self.applied_x = np.full(f.nb, -1, dtype=np.int64)

    def worker(self) -> None:
        return None

    def merge(self, local) -> None:
        return None

    def prepare(self, tid: int):
        return self.kinds[tid], None

    def slots(self, tid: int) -> tuple[int, ...]:
        return tsolve_write_slots(self.tdag, tid, self.nb)

    def run(self, tid: int, ctx, local):
        tdag = self.tdag
        execute_tsolve_task(self.f, tdag, tid, self.y, self.x, self.plans)
        if self.owner is None:
            return None
        tgt = int(tdag.target[tid])
        self.applied_y[tgt] = max(self.applied_y[tgt], tdag.seq_y[tid])
        self.applied_x[tgt] = max(self.applied_x[tgt], tdag.seq_x[tid])
        dests = _consumers(self.owner, tdag.successors[tid], self.rank)
        if not dests:
            return None
        # snapshot while the write locks are held: once the task
        # completes, a chained successor writer on another lane may
        # overwrite the segment before the send reads it
        seg = self.f.block_slice(tgt)
        src = self.y if int(tdag.kinds[tid]) in _Y_WRITERS else self.x
        arr = np.array(src[seg])
        return dests, (tid, tgt, arr), arr.nbytes

    def label(self, tid: int) -> str:
        return tsolve_task_label(self.tdag, tid)

    def absorb(self, msg) -> tuple[int, int]:
        src, tgt, arr = msg
        seg = self.f.block_slice(tgt)
        seq_y = int(self.tdag.seq_y[src])
        seq_x = int(self.tdag.seq_x[src])
        if seq_y >= 0:
            with self.locks[tgt]:
                if seq_y > self.applied_y[tgt]:
                    self.y[seg] = arr
                    self.applied_y[tgt] = seq_y
        if seq_x >= 0:
            # a DIAG_F payload doubles as the backward seed (x = y there)
            with self.locks[self.nb + tgt]:
                if seq_x > self.applied_x[tgt]:
                    self.x[seg] = arr
                    self.applied_x[tgt] = seq_x
        return src, arr.nbytes


def solve_stats(drain: Drain, y: np.ndarray, **fields) -> TSolveStats:
    """The :class:`TSolveStats` of a solve drain over RHS ``y``
    (``fields`` name the engine and its lane shape)."""
    return TSolveStats(
        tasks_executed=drain.tasks_executed,
        nrhs=1 if y.ndim == 1 else y.shape[1],
        messages_sent=drain.messages_sent,
        seg_bytes_sent=drain.bytes_sent,
        max_ready_depth=drain.max_ready_depth,
        seconds=drain.seconds_total,
        **fields,
    )
