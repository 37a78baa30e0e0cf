"""``counter-protocol`` — dependency counters flow through SchedulerCore.

The synchronisation-free protocol is sound only because every counter
decrement happens inside :meth:`SchedulerCore.complete` (vectorised,
paired with a ready-heap push, checked for underflow).  A raw store to
``core.counters``, ``core.remaining`` or a direct push/pop on
``core.ready`` from engine code bypasses the underflow guard and the
race detector, so any such write outside ``runtime/scheduler.py`` (the
one module allowed to implement the protocol) is flagged.

The rule covers every scheduler consumer — above all the one executor
(``runtime/executor.py``) whose drain every engine runs, for the
factorisation and for the phase-5 triangular solves alike, and the
entry points that build its cores (``core/numeric.py``,
``core/tsolve.py``, ``core/schur.py``, the threaded and distributed
lane shapes).
"""

from __future__ import annotations

import ast
from collections.abc import Iterator

from ..astlint import FileContext, Finding, Rule, register
from ._util import MUTATING_METHODS, dotted

#: SchedulerCore attributes engines must never write directly
_PROTOCOL_ATTRS = frozenset({"counters", "remaining", "ready"})


def _protocol_attr(node: ast.AST) -> str | None:
    """The protocol attribute an expression reaches into, if any:
    ``core.counters[i]`` → ``counters``."""
    while isinstance(node, ast.Subscript):
        node = node.value
    if isinstance(node, ast.Attribute) and node.attr in _PROTOCOL_ATTRS:
        # any attribute access counts; bare `counters = ...` locals are fine
        return node.attr
    return None


@register
class CounterProtocolRule(Rule):
    name = "counter-protocol"
    description = (
        "scheduler counters/ready-heap are only mutated via SchedulerCore "
        "methods, never raw stores"
    )
    exclude = ("*/repro/runtime/scheduler.py", "*/repro/devtools/*")

    def check(self, tree: ast.Module, ctx: FileContext) -> Iterator[Finding]:
        for node in ast.walk(tree):
            if isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign)):
                targets = (
                    node.targets if isinstance(node, ast.Assign) else [node.target]
                )
                for target in targets:
                    attr = _protocol_attr(target)
                    if attr is not None:
                        yield ctx.finding(
                            self.name, target,
                            f"raw store to scheduler .{attr} — go through "
                            "SchedulerCore.complete()/pop() so the underflow "
                            "guard and race detector see it",
                        )
            elif isinstance(node, ast.Call):
                func = node.func
                # core.ready.append(...) / heapq.heappush(core.ready, ...)
                if (
                    isinstance(func, ast.Attribute)
                    and func.attr in MUTATING_METHODS
                    and _protocol_attr(func.value) is not None
                ):
                    yield ctx.finding(
                        self.name, node,
                        "in-place mutation of scheduler protocol state — "
                        "use SchedulerCore methods",
                    )
                elif dotted(func) in ("heapq.heappush", "heapq.heappop"):
                    if node.args and _protocol_attr(node.args[0]) is not None:
                        yield ctx.finding(
                            self.name, node,
                            "direct heap operation on the scheduler ready-"
                            "heap — use SchedulerCore.pop()/complete()",
                        )
