"""Tests of the phase-5 triangular-solve engines (`repro.core.tsolve`,
`repro.runtime.threaded.tsolve_threaded`, `repro.runtime.distributed
.tsolve_distributed`) and the factor-once/solve-many `Factorization`
handle.

The executable solve DAG totally orders the writers of every RHS
segment, so all three engines must produce *bit-identical* solutions —
equal to the legacy sequential sweeps, not merely close.  The race
detector must stay silent on clean runs and name both parties when a
double writer is injected on an RHS segment.
"""

from __future__ import annotations

import pickle
import threading

import numpy as np
import pytest

from repro.core import block_partition, build_dag, factorize
from repro.core.mapping import ProcessGrid
from repro.core.solver import Factorization, PanguLU, SolverOptions
from repro.core.tsolve import block_backward, block_forward, tsolve_sequential
from repro.core.tsolve_dag import TSolveDAG, TSolveTaskType, build_tsolve_dag
from repro.devtools.racecheck import ConcurrencyViolation, RaceChecker
from repro.runtime import tsolve_distributed, tsolve_threaded
from repro.runtime.engines import available_tsolve_engines, get_tsolve_engine
from repro.runtime.transports import LoopbackTransport
from repro.sparse import grid_laplacian_2d, random_sparse
from repro.symbolic import symbolic_symmetric


def _factored(n=72, bs=13, seed=0):
    """A numerically factorized BlockMatrix (L\\U in place)."""
    a = random_sparse(n, 0.07, seed=seed)
    filled = symbolic_symmetric(a).filled
    bm = block_partition(filled, bs)
    factorize(bm, build_dag(bm))
    return bm


def _rhs(n, nrhs, seed=0):
    rng = np.random.default_rng(seed)
    return rng.standard_normal(n if nrhs == 1 else (n, nrhs))


# ----------------------------------------------------------------------
# engines agree, bit-identically
# ----------------------------------------------------------------------

class TestEnginesAgree:
    @pytest.mark.parametrize("nrhs", [1, 3])
    def test_bit_identical_across_engines(self, nrhs):
        f = _factored()
        b = _rhs(f.n, nrhs)
        ref = block_backward(f, block_forward(f, b))

        tdag = build_tsolve_dag(f, lambda bi, bj: 0, executable=True)
        xs, ss = tsolve_sequential(f, b, tdag=tdag)
        xt, st = tsolve_threaded(f, tdag, b, n_workers=4)

        grid_dag = build_tsolve_dag(
            f, ProcessGrid.square(2).owner, executable=True
        )
        xd, sd = tsolve_distributed(
            f, grid_dag, b, 2, transport=LoopbackTransport(), validate=True
        )

        assert np.array_equal(xs, ref)  # scheduler path == legacy sweeps
        assert np.array_equal(xt, xs)
        assert np.array_equal(xd, xs)
        assert ss.tasks_executed == st.tasks_executed == len(tdag)
        assert sd.tasks_executed == len(grid_dag)
        assert sd.n_procs == 2
        assert sd.messages_sent > 0 and sd.seg_bytes_sent > 0

    def test_distributed_three_ranks_multi_rhs(self):
        f = _factored(seed=4)
        b = _rhs(f.n, 2, seed=1)
        ref, _ = tsolve_sequential(f, b)
        tdag = build_tsolve_dag(
            f, ProcessGrid.square(3).owner, executable=True
        )
        x, stats = tsolve_distributed(
            f, tdag, b, 3, transport=LoopbackTransport(), validate=True
        )
        assert np.array_equal(x, ref)
        assert stats.nrhs == 2

    def test_engines_need_executable_dag(self):
        f = _factored()
        loose = build_tsolve_dag(f, lambda bi, bj: 0)  # simulator build
        with pytest.raises(ValueError, match="executable"):
            tsolve_threaded(f, loose, np.ones(f.n))
        with pytest.raises(ValueError, match="executable"):
            tsolve_distributed(
                f, loose, np.ones(f.n), 2, transport=LoopbackTransport()
            )


# ----------------------------------------------------------------------
# facade dispatch: SolverOptions.engine governs phase 5
# ----------------------------------------------------------------------

class TestFacadeDispatch:
    @pytest.mark.parametrize("engine", ["sequential", "threaded"])
    def test_engine_option_governs_solve(self, engine):
        a = grid_laplacian_2d(9, 9)
        s = PanguLU(a, SolverOptions(engine=engine, n_workers=3))
        x = s.solve(np.ones(a.nrows))
        assert float(np.linalg.norm(a.matvec(x) - np.ones(a.nrows))) < 1e-8
        fact = s.factorize()
        assert fact.last_tsolve_stats is not None
        assert fact.last_tsolve_stats.engine == engine

    def test_facade_engines_give_identical_solutions(self):
        a = grid_laplacian_2d(8, 8)
        b = _rhs(a.nrows, 1, seed=7)
        x_seq = PanguLU(a, SolverOptions(engine="sequential")).solve(b)
        x_thr = PanguLU(
            a, SolverOptions(engine="threaded", n_workers=4)
        ).solve(b)
        assert np.array_equal(x_seq, x_thr)

    def test_registry(self):
        assert set(available_tsolve_engines()) >= {
            "sequential", "threaded", "distributed",
        }
        with pytest.raises(ValueError, match="unknown tsolve engine"):
            get_tsolve_engine("warp-drive")


# ----------------------------------------------------------------------
# race detection over RHS segments
# ----------------------------------------------------------------------

class _NoopLock:
    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def acquire(self):
        pass

    def release(self):
        pass


def test_threaded_detector_catches_rhs_double_writer(monkeypatch):
    f = _factored()
    # two independent root UPD_F tasks writing the SAME y segment
    tdag = TSolveDAG(
        kinds=np.array([TSolveTaskType.UPD_F, TSolveTaskType.UPD_F]),
        k_of=np.array([0, 1]),
        target=np.array([2, 2]),
        flops=np.zeros(2),
        out_bytes=np.zeros(2),
        n_deps=np.array([0, 0]),
        successors=[[], []],
        owner=np.zeros(2, dtype=np.int64),
        total_flops=0.0,
        seq_y=np.array([0, 1]),
        seq_x=np.array([-1, -1]),
    )

    collided = threading.Event()
    checker = RaceChecker(label="tsolve-threaded")
    orig_begin = checker.begin_write

    def signalling_begin(slot, tid, worker):
        try:
            orig_begin(slot, tid, worker)
        except ConcurrencyViolation:
            collided.set()  # release the first writer
            raise

    checker.begin_write = signalling_begin

    def fake_execute(f, tdag, tid, y, x, plans):
        # hold the segment until the second writer collides (bounded
        # wait so a regression fails the test instead of hanging it)
        collided.wait(timeout=10)

    monkeypatch.setattr(
        "repro.runtime.executor._make_segment_locks",
        lambda n: [_NoopLock() for _ in range(n)],
    )
    monkeypatch.setattr(
        "repro.runtime.executor.execute_tsolve_task", fake_execute
    )

    with pytest.raises(ConcurrencyViolation) as exc:
        tsolve_threaded(f, tdag, np.ones(f.n), n_workers=2, checker=checker)
    msg = str(exc.value)
    assert "double writer" in msg
    assert "task 0" in msg and "task 1" in msg  # both tasks named
    assert "slot 2" in msg                      # the shared y segment
    assert collided.is_set()


def test_threaded_clean_run_with_checker():
    f = _factored(seed=2)
    tdag = build_tsolve_dag(f, lambda bi, bj: 0, executable=True)
    checker = RaceChecker(label="tsolve-threaded")
    b = _rhs(f.n, 2, seed=3)
    x, _ = tsolve_threaded(f, tdag, b, n_workers=4, checker=checker)
    assert checker.violations == []
    ref, _ = tsolve_sequential(f, b, checker=RaceChecker(label="seq"))
    assert np.array_equal(x, ref)


# ----------------------------------------------------------------------
# the Factorization handle: factor once, solve many, pickle, trace
# ----------------------------------------------------------------------

class TestFactorizationHandle:
    def test_factorize_returns_cached_handle(self):
        a = grid_laplacian_2d(7, 7)
        s = PanguLU(a, SolverOptions())
        fact = s.factorize()
        assert isinstance(fact, Factorization)
        assert s.factorize() is fact

    def test_pickle_roundtrip_solves_fresh_rhs(self):
        a = grid_laplacian_2d(8, 8)
        fact = PanguLU(a, SolverOptions()).factorize()
        fact2 = pickle.loads(pickle.dumps(fact))
        b = _rhs(a.nrows, 1, seed=11)  # RHS the original never saw
        x1 = fact.solve(b)
        x2 = fact2.solve(b)
        assert np.array_equal(x1, x2)
        assert float(np.linalg.norm(a.matvec(x2) - b)) < 1e-8
        assert fact2.solve_count == 1  # solved without refactorizing

    def test_solve_timing_accumulates(self):
        a = grid_laplacian_2d(7, 7)
        s = PanguLU(a, SolverOptions())
        b = np.ones(a.nrows)
        for _ in range(3):
            s.solve(b)
        fact = s.factorize()
        assert fact.solve_count == 3
        assert s.phase_seconds["solve"] == fact.total_solve_seconds
        assert 0.0 < fact.last_solve_seconds <= fact.total_solve_seconds

    @pytest.mark.parametrize("engine", ["sequential", "threaded"])
    def test_trace_records_solve_lanes(self, engine):
        a = grid_laplacian_2d(7, 7)
        s = PanguLU(
            a,
            SolverOptions(engine=engine, n_workers=2, trace_events=True),
        )
        s.factorize()
        n_factor_events = len(s.recorder.task_events)
        s.solve(np.ones(a.nrows))
        solve_events = s.recorder.task_events[n_factor_events:]
        cats = {e.cat for e in solve_events}
        assert {"DIAG_F", "DIAG_B"} <= cats
        assert all(e.tid >= 0 for e in solve_events)
