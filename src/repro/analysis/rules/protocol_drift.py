"""RL004 — wire replies and protocol vocabulary live in ``protocol.py`` only.

Stdio sessions and TCP connections share one line-protocol handler
(``AsyncQueryFrontend._handle_line``), and the blocking facade, ``--mutations``
replay and the live protocol share one mutation dispatch.  Replies stay
wire-identical across those surfaces — the property the equality tests pin —
because every reply string and every command word comes from
``repro.serving.protocol``.  Inline ``f"error: ..."`` formatting once drifted
between two copies of the handler; this rule makes a new inline reply or
command literal a build failure.

Scope: the modules that format replies or dispatch on protocol vocabulary
(``serving/aio.py``: the handler and the mutation dispatch;
``serving/server.py``: stdio errors and ``--mutations`` replay).  Flagged
there:

* f-strings or plain string constants that begin with a wire reply prefix
  (``"ok "`` / ``"error:"``) — replies must be built by ``protocol.py``
  formatters (``format_distance_line``, ``format_mutation_ack``,
  ``format_error`` ...);
* bytes literals carrying a wire prefix (replies are encoded centrally);
* comparisons against protocol vocabulary literals (``op == "add"``,
  ``command in ("quit", "exit")``) — use the ``OP_*`` constants and command
  sets exported by ``protocol.py`` so renames and aliases happen in one
  place.

HTTP admin-plane strings (paths, JSON keys, content types) are untouched:
the rule keys on the line-protocol reply prefixes and command words only.
"""

from __future__ import annotations

import ast
from typing import Iterator, Tuple

from ..base import Finding, ModuleContext, Rule, register_rule

__all__ = ["ProtocolDriftRule"]

#: Modules that speak the wire protocol but must not define it.
_FRONTEND_SUFFIXES = ("serving/server.py", "serving/aio.py")

_REPLY_PREFIXES: Tuple[str, ...] = ("ok ", "error:")
_REPLY_PREFIXES_BYTES: Tuple[bytes, ...] = (b"ok ", b"error:")

#: Command words owned by protocol.py (mutation ops + control commands +
#: query-verb spellings).
_VOCABULARY = {
    "add",
    "insert",
    "remove",
    "delete",
    "publish",
    "quit",
    "exit",
    "stats",
    "stats json",
    "traces",
    "alerts",
    "many",
    "one_to_many",
    "one-to-many",
}


def _starts_with_reply_prefix(value: str) -> bool:
    return value.startswith(_REPLY_PREFIXES)


@register_rule
class ProtocolDriftRule(Rule):
    id = "RL004"
    name = "protocol-drift"
    description = (
        "front ends (serving/server.py, serving/aio.py) must not inline wire reply "
        "strings or protocol command literals; use protocol.py helpers/constants"
    )
    rationale = (
        "stdio and TCP answer through one handler, and stay wire-identical to the "
        "equality tests only because replies and vocabulary are defined once in "
        "protocol.py; inline literals drift"
    )

    def applies_to(self, ctx: ModuleContext) -> bool:
        return ctx.path.replace("\\", "/").endswith(_FRONTEND_SUFFIXES)

    def check(self, ctx: ModuleContext) -> Iterator[Finding]:
        fstring_parts = set()
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.JoinedStr):
                for value in node.values:
                    fstring_parts.add(id(value))
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.JoinedStr):
                yield from self._check_fstring(ctx, node)
            elif isinstance(node, ast.Constant) and id(node) not in fstring_parts:
                yield from self._check_constant(ctx, node)
            elif isinstance(node, ast.Compare):
                yield from self._check_compare(ctx, node)

    def _check_fstring(self, ctx: ModuleContext, node: ast.JoinedStr) -> Iterator[Finding]:
        for value in node.values:
            if isinstance(value, ast.Constant) and isinstance(value.value, str):
                if _starts_with_reply_prefix(value.value):
                    yield self.finding(
                        ctx,
                        node,
                        "inline wire reply f-string; build replies with the "
                        "protocol.py formatters (format_error, format_mutation_ack, ...)",
                    )
            # Only the leading literal chunk identifies a reply.
            break

    def _check_constant(self, ctx: ModuleContext, node: ast.Constant) -> Iterator[Finding]:
        if isinstance(node.value, str) and _starts_with_reply_prefix(node.value):
            yield self.finding(
                ctx,
                node,
                "inline wire reply literal; build replies with the protocol.py formatters",
            )
        elif isinstance(node.value, bytes) and node.value.startswith(_REPLY_PREFIXES_BYTES):
            yield self.finding(
                ctx,
                node,
                "inline wire reply bytes literal; format via protocol.py and encode once",
            )

    def _check_compare(self, ctx: ModuleContext, node: ast.Compare) -> Iterator[Finding]:
        candidates = [node.left, *node.comparators]
        literals = []
        for candidate in candidates:
            if isinstance(candidate, (ast.Tuple, ast.List, ast.Set)):
                literals.extend(candidate.elts)
            else:
                literals.append(candidate)
        for literal in literals:
            if (
                isinstance(literal, ast.Constant)
                and isinstance(literal.value, str)
                and literal.value.lower() in _VOCABULARY
            ):
                yield self.finding(
                    ctx,
                    node,
                    f"protocol vocabulary literal {literal.value!r} in comparison; "
                    "use the constants/sets exported by protocol.py "
                    "(OP_ADD, OP_REMOVE, OP_PUBLISH, QUIT_COMMANDS, ...)",
                )
