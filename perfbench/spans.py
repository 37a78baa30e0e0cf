"""Spans the benchmark records around its calls into the solver's layers.

The benchmark does not edit the solver: for a traced run it swaps the
module attributes that the solver resolves at call time (``mc64`` in
``repro.core.solver``, ``block_partition`` in ``repro.core.strategy``,
``get_engine`` in ``repro.runtime.engines`` …) and the phase methods of
``PanguLU``/``Factorization`` for thin wrappers that record a span, and
puts every original back when the run ends.  Spans live in memory and
are written out once, at the end.
"""

from __future__ import annotations

import functools
import time
from contextlib import contextmanager
from dataclasses import dataclass


@dataclass
class Span:
    sid: int
    name: str
    start: float
    end: float
    parent: int | None


class Tracer:
    """A stack of open spans on the calling thread; each closed span keeps
    its parent's id, so self time can be computed afterwards."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self.counters: dict[str, float] = {}

    @contextmanager
    def span(self, name: str):
        sid = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        rec = Span(sid, name, time.perf_counter(), 0.0, parent)
        self.spans.append(rec)
        self._stack.append(sid)
        try:
            yield rec
        finally:
            self._stack.pop()
            rec.end = time.perf_counter()

    def add(self, key: str, value: float) -> None:
        self.counters[key] = self.counters.get(key, 0.0) + value

    def totals(self) -> dict[str, dict]:
        """Per span name: calls, inclusive seconds and self seconds."""
        selfs = self_times(self.spans)
        out: dict[str, dict] = {}
        for sp in self.spans:
            row = out.setdefault(sp.name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            row["calls"] += 1
            row["total_s"] += sp.end - sp.start
            row["self_s"] += selfs[sp.sid]
        return out

    def seconds(self, name: str) -> float:
        return sum(sp.end - sp.start for sp in self.spans if sp.name == name)

    def calls(self, name: str) -> int:
        return sum(1 for sp in self.spans if sp.name == name)

    def to_json(self) -> list[dict]:
        return [sp.__dict__ for sp in self.spans]


def self_times(spans: list[Span]) -> dict[int, float]:
    """Self time of every span: its duration minus the part of its
    interval that the union of its children's intervals covers."""
    children: dict[int, list[Span]] = {}
    for sp in spans:
        if sp.parent is not None:
            children.setdefault(sp.parent, []).append(sp)
    out = {}
    for sp in spans:
        covered = 0.0
        cur_lo = cur_hi = None
        for ch in sorted(children.get(sp.sid, ()), key=lambda c: c.start):
            lo, hi = max(ch.start, sp.start), min(ch.end, sp.end)
            if hi <= lo:
                continue
            if cur_hi is None or lo > cur_hi:
                if cur_hi is not None:
                    covered += cur_hi - cur_lo
                cur_lo, cur_hi = lo, hi
            else:
                cur_hi = max(cur_hi, hi)
        if cur_hi is not None:
            covered += cur_hi - cur_lo
        out[sp.sid] = (sp.end - sp.start) - covered
    return out


class Patches:
    """Attribute swaps that are all undone by :meth:`restore`."""

    def __init__(self) -> None:
        self._saved: list[tuple[object, str, object]] = []

    def wrap(self, owner, attr: str, make):
        original = getattr(owner, attr)
        self._saved.append((owner, attr, original))
        setattr(owner, attr, make(original))

    def restore(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)


def _spanned(tracer: Tracer, name: str, after=None):
    """Wrapper factory: run the original inside a span; ``after`` sees
    the call's arguments and result (used to read counters)."""

    def make(fn):
        @functools.wraps(fn)
        def wrapped(*args, **kwargs):
            with tracer.span(name):
                result = fn(*args, **kwargs)
            if after is not None:
                after(result, *args, **kwargs)
            return result

        return wrapped

    return make


def instrument(tracer: Tracer, recorder) -> Patches:
    """Put spans on every layer boundary the benchmark measures.

    ``recorder`` is an ``EventRecorder`` handed to every engine call that
    was not given one (``Factorization.refactorize`` passes none), so the
    per-task kernel spans of refactorisations are captured too."""
    import repro.core.solver as solver
    import repro.core.strategy as strategy
    import repro.ordering.nd as nd
    import repro.runtime.engines as engines
    import repro.symbolic as symbolic
    from repro.sparse.csc import CSCMatrix

    p = Patches()
    for cls, methods in (
        (solver.PanguLU, ("reorder", "symbolic_factorize", "preprocess", "factorize")),
        (solver.Factorization, ("refactorize", "solve")),
    ):
        for m in methods:
            p.wrap(cls, m, _spanned(tracer, f"{cls.__name__}.{m}"))

    def after_apply(_x, fact, *args, **kwargs):
        ts = fact.last_tsolve_stats
        if ts is not None:
            tracer.add("tsolve.tasks", ts.tasks_executed)

    p.wrap(solver.Factorization, "apply",
           _spanned(tracer, "Factorization.apply", after_apply))
    for name in ("mc64", "nested_dissection", "symbolic_symmetric", "build_dag",
                 "balance_loads", "build_tsolve_dag"):
        p.wrap(solver, name, _spanned(tracer, name))
    p.wrap(strategy, "block_partition", _spanned(tracer, "block_partition"))
    p.wrap(symbolic, "fill_in_values", _spanned(tracer, "fill_in_values"))
    p.wrap(CSCMatrix, "matvec", _spanned(tracer, "matvec"))
    p.wrap(CSCMatrix, "matmat", _spanned(tracer, "matvec"))

    def count_bfs(fn):
        @functools.wraps(fn)
        def wrapped(*args, **kwargs):
            tracer.add("ordering.bfs_levels_calls", 1)
            return fn(*args, **kwargs)

        return wrapped

    p.wrap(nd, "bfs_levels", count_bfs)

    default = recorder

    def wrap_get_engine(get_engine):
        @functools.wraps(get_engine)
        def patched(name):
            engine = get_engine(name)

            def run(blocks, dag, options, *, recorder=None, placement=None):
                with tracer.span("engine"):
                    stats = engine(blocks, dag, options,
                                   recorder=recorder if recorder is not None else default,
                                   placement=placement)
                tracer.add("kernels.tasks", stats.tasks_executed)
                tracer.add("kernels.flops", stats.flops_total)
                tracer.add("kernels.planned", stats.planned_tasks)
                tracer.add("kernels.pivots_replaced", stats.pivots_replaced)
                return stats

            return run

        return patched

    p.wrap(engines, "get_engine", wrap_get_engine)
    return p
