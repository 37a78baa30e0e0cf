"""``no-block-rebind`` — block arrays are mutated in place, never rebound.

The arena layout (:class:`~repro.core.blocking.FactorArena`) works only
because every block's ``indptr``/``indices``/``data`` is a **view into a
shared slab**: kernels write *through* the view (``blk.data[dst] -= …``)
and the slab, the execution plans addressing it, the transport payloads
aliasing it and the in-place ``refactorize`` path all stay coherent.
Rebinding one of those attributes (``blk.data = new_array``) silently
detaches the block from its slab — subsequent arena-addressed plans and
slab sends would read stale storage while the kernel's output sits in a
private array.  The same discipline is what keeps the plan cache safe
across :meth:`~repro.core.solver.Factorization.refactorize`.

So in kernel and engine code any assignment whose *target* is a
``.data`` / ``.indices`` / ``.indptr`` attribute is flagged — including
augmented assignment, which desugars to a rebind of the attribute.
Subscripted stores (``blk.data[...] = …``, ``blk.data[s:e] -= …``) are
the sanctioned in-place form and pass.  Constructors of the storage
types themselves (``sparse/csc.py``, ``core/blocking.py``) legitimately
bind these attributes and are excluded.
"""

from __future__ import annotations

import ast
from collections.abc import Iterator

from ..astlint import FileContext, Finding, Rule, register

#: block-array attributes that must only be written through a subscript
_BLOCK_ARRAYS = frozenset({"data", "indices", "indptr"})


def _rebind_target(node: ast.AST) -> str | None:
    """The block-array attribute ``node`` rebinds, if any.

    ``blk.data`` → ``"data"``; ``blk.data[...]`` → ``None`` (subscripted
    stores go through the live buffer and are the sanctioned form).
    """
    if isinstance(node, ast.Attribute) and node.attr in _BLOCK_ARRAYS:
        return node.attr
    return None


@register
class NoBlockRebindRule(Rule):
    name = "no-block-rebind"
    description = (
        "kernels/engines mutate block .data/.indices/.indptr in place "
        "(subscripted stores), never rebind the attribute"
    )
    files = (
        "*/repro/kernels/*.py",
        "*/repro/runtime/*.py",
        "*/repro/core/*.py",
    )
    exclude = (
        # the storage types bind their own arrays at construction time
        "*/repro/core/blocking.py",
        "*/repro/devtools/*",
    )

    def check(self, tree: ast.Module, ctx: FileContext) -> Iterator[Finding]:
        for node in ast.walk(tree):
            if isinstance(node, ast.Assign):
                targets: list[ast.AST] = []
                for t in node.targets:
                    targets.extend(t.elts if isinstance(t, ast.Tuple) else [t])
            elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
                targets = [node.target]
            else:
                continue
            for target in targets:
                attr = _rebind_target(target)
                if attr is not None:
                    yield ctx.finding(
                        self.name, target,
                        f"rebinding block .{attr} detaches the block from "
                        "its (possibly arena-backed) storage — write in "
                        f"place through a subscript (`….{attr}[...] = …`)",
                    )
