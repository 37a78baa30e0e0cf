"""Tests of the one executor behind every engine (`repro.runtime.executor`).

Each engine name is a lane shape of the same drain, so timings and the
first-error path are checked once per engine, for the factorisation and
the triangular solves alike.
"""

from __future__ import annotations

import sys
import threading
import time

import numpy as np
import pytest

from repro.core import block_partition, build_dag, factorize
from repro.core.placement import CyclicPlacement
from repro.core.solver import SolverOptions
from repro.core.tsolve import tsolve_sequential
from repro.core.tsolve_dag import build_tsolve_dag
from repro.runtime import SchedulerCore, factorize_threaded, tsolve_threaded
from repro.runtime.engines import get_engine, get_tsolve_engine
from repro.runtime.executor import FactorBody, execute
from repro.sparse import grid_laplacian_2d, random_sparse
from repro.symbolic import symbolic_symmetric

ENGINES = ["sequential", "threaded", "distributed", "hybrid"]
KERNEL_TYPES = {"GETRF", "GESSM", "TSTRF", "SSSSM"}


def _prepared(n=72, bs=12, seed=0):
    a = random_sparse(n, 0.07, seed=seed)
    bm = block_partition(symbolic_symmetric(a).filled, bs)
    return bm, build_dag(bm)


def _options(engine: str) -> SolverOptions:
    return SolverOptions(engine=engine, n_workers=2, nprocs=2)


def _solve_dag(bm, engine: str):
    owner = (
        CyclicPlacement(2).owner if engine in ("distributed", "hybrid")
        else (lambda bi, bj: 0)
    )
    return build_tsolve_dag(bm, owner, executable=True)


@pytest.mark.parametrize("engine", ENGINES)
def test_timings_filled_on_every_engine(engine):
    a = grid_laplacian_2d(20, 20)
    bm = block_partition(symbolic_symmetric(a).filled, 40)
    stats = get_engine(engine)(bm, build_dag(bm), _options(engine))
    assert stats.seconds_total > 0
    assert stats.seconds_by_type
    assert set(stats.seconds_by_type) <= KERNEL_TYPES


def test_single_lane_runs_inline():
    bm, dag = _prepared()
    body = FactorBody(bm, dag.tasks, _options("sequential").numeric)
    seen = []
    run = body.run

    def spy(tid, prep, local):
        seen.append(threading.current_thread())
        return run(tid, prep, local)

    body.run = spy
    before = threading.active_count()
    drain = execute(SchedulerCore.from_dag(dag), body)
    assert drain.tasks_executed == len(dag.tasks)
    assert set(seen) == {threading.current_thread()}
    assert threading.active_count() == before


class _StubTask:
    def __init__(self, tid, successors, n_deps):
        self.tid, self.k, self.ttype = tid, tid, 0
        self.successors, self.n_deps = successors, n_deps


class _StubDAG:
    def __init__(self, tasks):
        self.tasks = tasks


class _CountingBody:
    """A minimal body: one write slot per task, records what ran."""

    owner = None

    def __init__(self, n):
        self.locks = [threading.Lock() for _ in range(n)]
        self.ran = []

    def worker(self):
        return None

    def merge(self, local):
        pass

    def prepare(self, tid):
        return "STUB", None

    def slots(self, tid):
        return (tid,)

    def run(self, tid, ctx, local):
        self.ran.append(tid)

    def label(self, tid):
        return f"stub({tid})"


def test_many_lanes_under_fast_switching():
    # more lanes than cores and a tiny switch interval, so the shared
    # counters, heap and tallies are contended: every task must run
    # exactly once and the solve must still be bit-identical
    bm, dag = _prepared(n=96, seed=5)
    result = {}

    def work():
        stats = factorize_threaded(bm, dag, n_workers=8)
        tdag = build_tsolve_dag(bm, lambda bi, bj: 0, executable=True)
        b = np.linspace(-1.0, 1.0, bm.n)
        x, ts = tsolve_threaded(bm, tdag, b, n_workers=8)
        result.update(stats=stats, ts=ts, x=x,
                      ref=tsolve_sequential(bm, b, tdag=tdag)[0], n=len(tdag))

    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        th = threading.Thread(target=work, daemon=True)
        th.start()
        th.join(timeout=120)
    finally:
        sys.setswitchinterval(old)
    assert not th.is_alive()
    stats = result["stats"]
    assert stats.tasks_executed == len(dag.tasks)
    assert sorted(stats.kernel_choices) == list(range(len(dag.tasks)))
    assert result["ts"].tasks_executed == result["n"]
    assert np.array_equal(result["x"], result["ref"])


@pytest.mark.parametrize("n_threads", [1, 3])
def test_unsatisfiable_dependency_reports_deadlock(n_threads):
    # task 2 waits on a predecessor that never completes: the lanes must
    # stop and name the blocked frontier instead of waiting forever
    dag = _StubDAG([_StubTask(0, [1], 0), _StubTask(1, [], 1),
                    _StubTask(2, [], 1)])
    body = _CountingBody(3)
    with pytest.raises(RuntimeError, match="stub deadlock.*task 2"):
        execute(SchedulerCore.from_dag(dag), body, n_threads=n_threads,
                engine="stub")
    assert sorted(body.ran) == [0, 1]


@pytest.mark.parametrize("phase", ["factor", "solve"])
@pytest.mark.parametrize("engine", ENGINES)
def test_task_error_surfaces_on_every_engine(engine, phase, monkeypatch):
    import repro.runtime.executor as executor

    bm, dag = _prepared(seed=1)
    if phase == "factor":
        victim = len(dag.tasks) // 2
        real = executor.execute_task

        def failing(f, task, *args, **kwargs):
            if task.tid == victim:
                raise ValueError("boom")
            return real(f, task, *args, **kwargs)

        monkeypatch.setattr(executor, "execute_task", failing)

        def call():
            return get_engine(engine)(bm, dag, _options(engine))
    else:
        factorize(bm, dag)
        tdag = _solve_dag(bm, engine)
        victim = len(tdag) // 2
        real = executor.execute_tsolve_task

        def failing(f, tdag, tid, *args):
            if tid == victim:
                raise ValueError("boom")
            return real(f, tdag, tid, *args)

        monkeypatch.setattr(executor, "execute_tsolve_task", failing)

        def call():
            return get_tsolve_engine(engine)(
                bm, tdag, np.ones(bm.n), _options(engine)
            )
    t0 = time.perf_counter()
    with pytest.raises(Exception, match="boom"):
        call()
    assert time.perf_counter() - t0 < 60.0  # the error path never times out
