"""Shared parsing and reply formatting for the query wire/CLI protocol.

The one-shot ``repro-pll query`` command and the serving line protocol
(stdio and TCP sessions alike answer through one handler) accept the same
pair syntax (``s t`` or ``s,t``).  Mutation lines (``add a b``,
``remove a b``, ``publish``) use the same vocabulary in the live protocol
and in ``--mutations`` replay files, and every front end renders replies
through the formatters here.  This module is the single home for that
parsing and formatting so the surfaces cannot drift apart.
"""

from __future__ import annotations

from typing import Optional, Tuple

__all__ = [
    "ALERTS_COMMAND",
    "MAX_VERTEX_ID",
    "OP_ADD",
    "OP_PUBLISH",
    "OP_REMOVE",
    "QUIT_COMMANDS",
    "STATS_COMMANDS",
    "TRACES_COMMAND",
    "VERB_ONE_TO_MANY",
    "VERB_PAIR",
    "format_distance_line",
    "format_error",
    "format_mutation_ack",
    "format_one_to_many_reply",
    "format_parse_error",
    "format_publish_ack",
    "is_mutation",
    "is_one_to_many",
    "normalize_command",
    "parse_one_to_many",
    "parse_pair",
    "parse_mutation",
]

#: Largest vertex id representable in the int64 arrays queries are built from.
MAX_VERTEX_ID = 2**63 - 1

#: Canonical mutation operation names — what :func:`parse_mutation` returns
#: and what every front end dispatches on.  Front ends must compare against
#: these constants, never re-spell the strings (enforced by reprolint RL004).
OP_ADD = "add"
OP_REMOVE = "remove"
OP_PUBLISH = "publish"

#: Session-ending command spellings (case-insensitive, whitespace-normalised).
QUIT_COMMANDS = frozenset({"QUIT", "EXIT"})

#: Metrics-snapshot command spellings; both reply with the JSON metrics line.
STATS_COMMANDS = frozenset({"STATS", "STATS JSON"})

#: Recent/slow trace dump command; replies with the trace-ring JSON payload.
TRACES_COMMAND = "TRACES"

#: Health-engine dump command; replies with the alerts JSON payload (rule
#: states, firing/pending subsets, recently resolved) on every front end.
ALERTS_COMMAND = "ALERTS"

#: Canonical per-verb metric labels (``verb_queries_total{verb=...}``).
VERB_PAIR = "pair"
VERB_ONE_TO_MANY = "one_to_many"

#: Accepted spellings for the one-to-many query verb (case-insensitive).
_ONE_TO_MANY_ALIASES = frozenset({"many", "one_to_many", "one-to-many"})


def normalize_command(line: str) -> str:
    """Canonicalise one protocol line for command matching.

    Uppercases and collapses internal whitespace, so ``"stats   json"``
    matches :data:`STATS_COMMANDS`.  The line-protocol handler normalises
    through here, so command vocabulary is spelled in one place.
    """
    return " ".join(line.strip().upper().split())


def parse_pair(token: str) -> Tuple[int, int]:
    """Parse one ``s t`` / ``s,t`` token into a vertex-id pair.

    Raises
    ------
    ValueError
        With a human-readable reason (wrong shape, non-integer ids, or ids
        that do not fit 64 bits).  Callers prefix their own context.
    """
    parts = token.replace(",", " ").split()
    if len(parts) != 2:
        raise ValueError("expected 's t' or 's,t'")
    try:
        s, t = int(parts[0]), int(parts[1])
    except ValueError:
        raise ValueError("vertex ids must be integers") from None
    if abs(s) > MAX_VERTEX_ID or abs(t) > MAX_VERTEX_ID:
        raise ValueError("vertex id does not fit 64 bits")
    return s, t


#: Accepted spellings for each mutation operation.
_MUTATION_ALIASES = {
    "add": OP_ADD,
    "insert": OP_ADD,
    "remove": OP_REMOVE,
    "delete": OP_REMOVE,
    "publish": OP_PUBLISH,
}


def is_mutation(line: str) -> bool:
    """Whether a protocol line is a mutation (vs a query pair).

    Uses the same tokenisation as :func:`parse_mutation`, so every line that
    parser accepts — including fully comma-separated forms like ``add,0,2``
    — is routed to it.
    """
    parts = line.replace(",", " ").split()
    return bool(parts) and parts[0].lower() in _MUTATION_ALIASES


def parse_mutation(line: str) -> Tuple[str, Optional[Tuple[int, int]]]:
    """Parse one mutation line into ``(op, endpoints)``.

    Accepted forms (case-insensitive): ``add a b`` / ``insert a b``,
    ``remove a b`` / ``delete a b``, and the bare ``publish``.  Edge
    endpoints follow the same ``a b`` / ``a,b`` syntax as query pairs.
    ``endpoints`` is ``None`` for ``publish``.

    Raises
    ------
    ValueError
        With a human-readable reason; callers prefix their own context.
    """
    parts = line.replace(",", " ").split()
    if not parts:
        raise ValueError("empty mutation line")
    op = _MUTATION_ALIASES.get(parts[0].lower())
    if op is None:
        raise ValueError(
            f"unknown mutation {parts[0]!r}; expected add, remove or publish"
        )
    if op == OP_PUBLISH:
        if len(parts) != 1:
            raise ValueError("publish takes no arguments")
        return op, None
    return op, parse_pair(" ".join(parts[1:]))


def is_one_to_many(line: str) -> bool:
    """Whether a protocol line is a one-to-many query (``many s t1 t2 ...``).

    Same tokenisation as :func:`parse_one_to_many`, so every line that parser
    accepts — including comma-separated forms like ``many,0,1,2`` — is routed
    to it.
    """
    parts = line.replace(",", " ").split()
    return bool(parts) and parts[0].lower() in _ONE_TO_MANY_ALIASES


def parse_one_to_many(line: str) -> Tuple[int, Tuple[int, ...]]:
    """Parse one one-to-many line into ``(source, targets)``.

    Accepted forms (case-insensitive): ``many s t1 [t2 ...]``, with
    ``one_to_many`` / ``one-to-many`` as verb aliases and the same mixed
    space/comma tokenisation as query pairs.  At least one explicit target is
    required — the reply carries one line per target, so the client must know
    how many lines to read back.

    Raises
    ------
    ValueError
        With a human-readable reason; callers prefix their own context.
    """
    parts = line.replace(",", " ").split()
    if not parts or parts[0].lower() not in _ONE_TO_MANY_ALIASES:
        raise ValueError("expected 'many s t1 [t2 ...]'")
    if len(parts) < 3:
        raise ValueError("one-to-many needs a source and at least one target")
    try:
        ids = [int(part) for part in parts[1:]]
    except ValueError:
        raise ValueError("vertex ids must be integers") from None
    if any(abs(v) > MAX_VERTEX_ID for v in ids):
        raise ValueError("vertex id does not fit 64 bits")
    return ids[0], tuple(ids[1:])


def format_one_to_many_reply(
    source: int, targets: Tuple[int, ...], distances
) -> str:
    """Render a one-to-many reply: one :func:`format_distance_line` per target.

    The lines are joined with ``\\n`` (the session handler appends the final
    newline), in target order, so a client that sent N targets reads exactly
    N reply lines in the same shape as point queries.
    """
    return "\n".join(
        format_distance_line(source, target, float(distance))
        for target, distance in zip(targets, distances)
    )


def format_distance_line(s: int, t: int, distance: float) -> str:
    """Render one query reply line (``s<TAB>t<TAB>distance``, ``inf`` spelled out)."""
    rendered = "inf" if distance == float("inf") else f"{distance:g}"
    return f"{s}\t{t}\t{rendered}"


def format_mutation_ack(op: str, a: int, b: int, pending: int) -> str:
    """Render the acknowledgement for an applied ``add``/``remove`` mutation."""
    return f"ok {op} ({a}, {b}); {pending} updates pending publish"


def format_publish_ack(version: int) -> str:
    """Render the acknowledgement for a published snapshot."""
    return f"ok published version={version}"


def format_error(reason: object) -> str:
    """Render an error reply line (``error: <reason>``).

    ``reason`` is typically a caught exception; front ends must route every
    wire error through here (or :func:`format_parse_error`) so the reply
    shape stays identical across the stdio and TCP surfaces.
    """
    return f"error: {reason}"


def format_parse_error(kind: str, line: str, reason: object) -> str:
    """Render the reply for an unparsable ``query``/``mutation`` line.

    The offending input is echoed back ``repr``-quoted so clients (and the
    equality tests) see exactly which bytes were rejected.
    """
    return f"error: cannot parse {kind} {line!r}; {reason}"
