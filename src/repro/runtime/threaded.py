"""Shared-memory engines: the 1×T lane shape of the executor.

``T`` worker threads share one :class:`~repro.runtime.scheduler.
SchedulerCore` under the executor's condition lock — a shared dependency
counter per task, a shared priority queue of ready tasks, no barriers
anywhere.  NumPy kernels release the GIL for their array work, so
workers overlap; per-target-block (per-RHS-segment) locks serialise
concurrent writes to the same block (segment), which in the distributed
setting the owner rank does implicitly.  The loop itself is
:func:`repro.runtime.executor.execute`; this module only names the
shape.
"""

from __future__ import annotations

import numpy as np

from ..core.blocking import BlockMatrix
from ..core.dag import TaskDAG
from ..core.numeric import FactorizeStats, NumericOptions
from ..core.tsolve import _check_rhs, tsolve_core
from ..core.tsolve_dag import TSolveDAG
from ..kernels.plans import PlanCache
from .executor import FactorBody, SolveBody, execute, solve_stats
from .scheduler import EventRecorder, SchedulerCore

__all__ = ["factorize_threaded", "tsolve_threaded"]


def factorize_threaded(
    f: BlockMatrix,
    dag: TaskDAG,
    options: NumericOptions | None = None,
    *,
    n_workers: int = 4,
    recorder: EventRecorder | None = None,
    checker=None,
) -> FactorizeStats:
    """Factorise the blocked matrix in place with ``n_workers`` threads.

    Raises the first kernel exception encountered (after quiescing the
    pool).  The result is numerically equivalent to sequential execution
    up to floating-point reassociation of commuting Schur updates.  Pass
    an :class:`~repro.runtime.scheduler.EventRecorder` to capture
    per-worker task events and ready-depth samples for Chrome-trace
    export of the real run, and a
    :class:`~repro.devtools.racecheck.RaceChecker` (``checker``) to
    verify the single-writer / exactly-once invariants with per-worker
    provenance.
    """
    body = FactorBody(f, dag.tasks, options or NumericOptions())
    core = SchedulerCore.from_dag(dag, recorder=recorder)
    stats = body.finish(execute(
        core, body, n_threads=n_workers, checker=checker, engine="threaded",
    ))
    stats.n_workers = n_workers
    return stats


def tsolve_threaded(
    f: BlockMatrix,
    tdag: TSolveDAG,
    b,
    *,
    n_workers: int = 4,
    plans: PlanCache | None = None,
    recorder: EventRecorder | None = None,
    checker=None,
) -> tuple:
    """Both triangular sweeps with ``n_workers`` threads over an
    *executable* solve DAG (:func:`repro.core.tsolve_dag.build_tsolve_dag`
    with ``executable=True``).

    Because the DAG totally orders the writers of every segment, the
    solution is *bit-identical* to
    :func:`repro.core.tsolve.tsolve_sequential`.  Returns
    ``(x, TSolveStats)``; ``b`` may be a vector or an ``(n, k)``
    multi-RHS panel.
    """
    if tdag.seq_y is None:
        raise ValueError("tsolve_threaded needs an executable solve DAG "
                         "(build_tsolve_dag(..., executable=True))")
    y = _check_rhs(f.n, b)
    x = np.empty_like(y)
    body = SolveBody(f, tdag, y, x, plans)
    core = tsolve_core(tdag, f.nb, recorder=recorder)
    drain = execute(
        core, body, n_threads=n_workers, checker=checker,
        engine="threaded tsolve",
    )
    return x, solve_stats(drain, y, engine="threaded", n_workers=n_workers)
