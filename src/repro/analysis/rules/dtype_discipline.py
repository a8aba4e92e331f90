"""RL005 — no implicit float64 allocations on the kernel paths.

``np.zeros(n)`` quietly allocates float64.  On the label-store and serving
paths that is 2–8x the memory the data needs (hubs are int32, distances fit
int8/int32), doubles cache pressure in the batch kernel, and — worst —
changes the bytes that cross the raw-file layout boundary, where dtype is
part of the on-disk contract.  Every allocation in ``core/``
and ``serving/`` therefore states its dtype.

Flagged: ``np.zeros`` / ``np.empty`` / ``np.ones`` / ``np.full`` /
``np.array`` calls (on a ``np``/``numpy`` name) with neither a ``dtype=``
keyword nor a positional dtype argument.  ``np.array`` is included even
though it preserves an existing array's dtype — on these paths the input is
often a plain Python list, and "explicit is the contract" is cheaper than
auditing call sites.  Dtype-preserving constructors (``zeros_like``,
``asarray`` used as a view cast) are deliberately exempt.

Scope: ``src/repro/core/`` and ``src/repro/serving/`` — experiments and
benchmarks may allocate however they like.  ``src/repro/core/kernels/`` is
covered by the ``core/`` prefix and is where the rule matters most: the
batch kernel stakes its memory win on uint32 keys and uint16 sums, so one
implicit float64 temporary there costs 4x the bytes it should.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterator

from ..base import Finding, ModuleContext, Rule, register_rule

__all__ = ["DtypeDisciplineRule"]

#: function name -> number of positional arguments at which the dtype is
#: covered positionally (``np.zeros(n, np.int64)`` is explicit).
_ALLOCATORS: Dict[str, int] = {
    "zeros": 2,
    "empty": 2,
    "ones": 2,
    "array": 2,
    "full": 3,
}

_NUMPY_NAMES = {"np", "numpy"}


@register_rule
class DtypeDisciplineRule(Rule):
    id = "RL005"
    name = "dtype-discipline"
    description = (
        "np.zeros/np.empty/np.ones/np.full/np.array in core/ and serving/ must pass "
        "an explicit dtype (no implicit float64)"
    )
    rationale = (
        "implicit float64 silently doubles label-store memory and breaks the "
        "raw-file layout dtype contract"
    )

    def applies_to(self, ctx: ModuleContext) -> bool:
        path = "/" + ctx.path.replace("\\", "/")
        return "/core/" in path or "/serving/" in path

    def check(self, ctx: ModuleContext) -> Iterator[Finding]:
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            if not (
                isinstance(func, ast.Attribute)
                and isinstance(func.value, ast.Name)
                and func.value.id in _NUMPY_NAMES
                and func.attr in _ALLOCATORS
            ):
                continue
            if any(keyword.arg == "dtype" for keyword in node.keywords):
                continue
            if len(node.args) >= _ALLOCATORS[func.attr]:
                continue
            yield self.finding(
                ctx,
                node,
                f"np.{func.attr}(...) without an explicit dtype allocates float64; "
                "state the dtype",
            )
