"""RL006 — no per-pair Python allocation inside kernel query bodies.

The kernel layer exists because per-pair Python work is what makes the
paper's microsecond query algorithm millisecond-slow under the interpreter.
A list/dict/set comprehension inside ``query_pairs`` /
``query_one_to_many`` / ``rooted_probe`` re-introduces exactly that cost:
one Python object per pair (or per label entry), allocated on every batch,
invisible in profiles until the batch size grows.  Those bodies must stay
vectorised: numpy ufuncs over whole arrays.

Flagged: ``ListComp`` / ``SetComp`` / ``DictComp`` nodes anywhere inside a
function (sync or async) named ``query_pairs``, ``query_one_to_many`` or
``rooted_probe``.  Generator expressions are exempt — they are lazy and the
usual offenders (``any``/``all`` guards over a handful of capability flags)
are not per-pair work.

Scope: ``src/repro/core/kernels/`` (the batch kernel) and
``src/repro/core/query.py`` (the scalar kernels); wrappers elsewhere (the
serving engine) delegate and may batch however they like.
"""

from __future__ import annotations

import ast
from typing import Iterator

from ..base import Finding, ModuleContext, Rule, register_rule

__all__ = ["KernelHotLoopRule"]

_HOT_FUNCTIONS = frozenset({"query_pairs", "query_one_to_many", "rooted_probe"})

_COMPREHENSIONS = (ast.ListComp, ast.SetComp, ast.DictComp)

_COMP_LABEL = {
    ast.ListComp: "list comprehension",
    ast.SetComp: "set comprehension",
    ast.DictComp: "dict comprehension",
}


@register_rule
class KernelHotLoopRule(Rule):
    id = "RL006"
    name = "kernel-hot-loop"
    description = (
        "query_pairs/query_one_to_many/rooted_probe bodies in core/kernels/ and "
        "core/query.py must not build list/dict/set comprehensions (per-pair "
        "Python allocation in the hot loop)"
    )
    rationale = (
        "a comprehension in a kernel query body allocates one Python object per "
        "pair per batch, undoing the vectorisation the kernel layer exists for"
    )

    def applies_to(self, ctx: ModuleContext) -> bool:
        path = "/" + ctx.path.replace("\\", "/")
        return "/core/kernels/" in path or path.endswith("/core/query.py")

    def check(self, ctx: ModuleContext) -> Iterator[Finding]:
        for node in ast.walk(ctx.tree):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            if node.name not in _HOT_FUNCTIONS:
                continue
            for inner in ast.walk(node):
                if isinstance(inner, _COMPREHENSIONS):
                    label = _COMP_LABEL[type(inner)]
                    yield self.finding(
                        ctx,
                        inner,
                        f"{label} inside {node.name}() allocates per-pair Python "
                        "objects in the kernel hot loop; vectorise with numpy "
                        "array operations instead",
                    )
