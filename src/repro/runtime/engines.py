"""Execution-engine registry.

One engine = one lane shape of the executor
(:func:`repro.runtime.executor.execute`) draining the task DAG through
the shared :class:`~repro.runtime.scheduler.SchedulerCore`.  The
registry maps the ``SolverOptions.engine`` string to a callable with the
uniform signature

``engine(blocks, dag, solver_options, *, recorder=None, placement=None)
-> FactorizeStats``

so the :class:`~repro.core.solver.PanguLU` facade (and the CLI's
``--engine`` flag) dispatch by name instead of special-casing worker
counts.  ``placement`` is the fitted
:class:`~repro.core.placement.PlacementPolicy` deciding block→rank
ownership for the multi-rank engines (the local engines ignore it).  A
future engine — async, sharded, multi-backend — is a transport plus one
:func:`register_engine` call.

Phase 5 has a parallel registry: the same names map to
*triangular-solve* engines with the signature

``tsolve_engine(blocks, tdag, b, solver_options, *, recorder=None,
placement=None) -> (x, TSolveStats)``

registered via :func:`register_tsolve_engine` and dispatched by the
:class:`~repro.core.solver.Factorization` handle, so one
``SolverOptions.engine`` string governs both the factorisation and every
subsequent solve.  All engines produce bit-identical solutions (the
solve DAG totally orders each RHS segment's writers).

Built-ins (both registries), as ranks × threads per rank:

========== ==========================================================
name        lane shape
========== ==========================================================
sequential  1×1 in-process, on the calling thread (the correctness
            reference)
threaded    1 × ``options.n_workers`` in-process threads sharing one core
distributed ``options.nprocs`` × 1 ranks over a message transport
hybrid      ``options.nprocs`` × ``options.n_workers``: each rank's
            lanes drain one shared scheduler core (HYLU-style mixed
            parallelism)
========== ==========================================================
"""

from __future__ import annotations

from collections.abc import Callable

from ..core.numeric import FactorizeStats, resolve_plan_cache
from .distributed import factorize_distributed, tsolve_distributed
from .scheduler import EventRecorder
from .threaded import factorize_threaded, tsolve_threaded

__all__ = [
    "register_engine",
    "get_engine",
    "available_engines",
    "register_tsolve_engine",
    "get_tsolve_engine",
    "available_tsolve_engines",
]

_ENGINES: dict[str, Callable] = {}
_TSOLVE_ENGINES: dict[str, Callable] = {}


def register_engine(name: str) -> Callable[[Callable], Callable]:
    """Decorator registering an engine under ``name`` (last wins)."""

    def deco(fn: Callable) -> Callable:
        _ENGINES[name] = fn
        return fn

    return deco


def get_engine(name: str) -> Callable:
    """The engine registered under ``name``; raises with the list of
    known names on a miss."""
    try:
        return _ENGINES[name]
    except KeyError:
        raise ValueError(
            f"unknown engine {name!r}; available: {available_engines()}"
        ) from None


def available_engines() -> list[str]:
    """Sorted names of all registered engines."""
    return sorted(_ENGINES)


def register_tsolve_engine(name: str) -> Callable[[Callable], Callable]:
    """Decorator registering a triangular-solve engine (last wins)."""

    def deco(fn: Callable) -> Callable:
        _TSOLVE_ENGINES[name] = fn
        return fn

    return deco


def get_tsolve_engine(name: str) -> Callable:
    """The solve engine registered under ``name``; raises with the list
    of known names on a miss."""
    try:
        return _TSOLVE_ENGINES[name]
    except KeyError:
        raise ValueError(
            f"unknown tsolve engine {name!r}; "
            f"available: {available_tsolve_engines()}"
        ) from None


def available_tsolve_engines() -> list[str]:
    """Sorted names of all registered triangular-solve engines."""
    return sorted(_TSOLVE_ENGINES)


def _validate(options) -> bool:
    """Whether the options (or the ``REPRO_CHECK`` environment variable)
    request concurrency validation."""
    from ..devtools.racecheck import validation_enabled

    return validation_enabled(options)


def _resolve_checker(options, label: str):
    """A fresh :class:`~repro.devtools.racecheck.RaceChecker` when
    validation is requested, else ``None``."""
    if not _validate(options):
        return None
    from ..devtools.racecheck import RaceChecker

    return RaceChecker(label=label)


#: engine name → lane shape ``(ranks, threads per rank)``, for the
#: factorisation and the solves alike; ``ranks=None`` runs in-process
_LANES: dict[str, Callable] = {
    "sequential": lambda o: (None, 1),
    "threaded": lambda o: (None, max(1, o.n_workers)),
    "distributed": lambda o: (max(1, o.nprocs), 1),
    "hybrid": lambda o: (max(1, o.nprocs), max(1, o.n_workers)),
}


def _factor_engine(name: str) -> Callable:
    def engine(
        f, dag, options, *, recorder: EventRecorder | None = None,
        placement=None,
    ) -> FactorizeStats:
        ranks, threads = _LANES[name](options)
        if ranks is None:
            return factorize_threaded(
                f, dag, options.numeric, n_workers=threads, recorder=recorder,
                checker=_resolve_checker(options, name),
            )
        return factorize_distributed(
            f, dag, ranks, options=options.numeric, recorder=recorder,
            validate=_validate(options), placement=placement,
            n_threads=threads,
        )

    return engine


def _tsolve_engine(name: str) -> Callable:
    def engine(
        f, tdag, b, options, *, recorder: EventRecorder | None = None,
        placement=None,
    ) -> tuple:
        ranks, threads = _LANES[name](options)
        if ranks is None:
            x, stats = tsolve_threaded(
                f, tdag, b, n_workers=threads,
                plans=resolve_plan_cache(f, options.numeric), recorder=recorder,
                checker=_resolve_checker(options, f"tsolve-{name}"),
            )
            stats.engine = name
            return x, stats
        return tsolve_distributed(
            f, tdag, b, ranks, use_plans=options.numeric.use_plans,
            recorder=recorder, validate=_validate(options),
            placement=placement, n_threads=threads,
        )

    return engine


for _name in _LANES:
    register_engine(_name)(_factor_engine(_name))
    register_tsolve_engine(_name)(_tsolve_engine(_name))
