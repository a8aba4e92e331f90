"""Core types for reprolint: findings, rules, per-file context, suppressions.

The framework is deliberately small.  A *rule* is a class with an id, a
description and a ``check(ctx)`` generator; a *finding* is an immutable record
pointing at one source location; a :class:`ModuleContext` is one parsed file
(source text, AST, comment-derived suppressions) handed to every rule.  The
runner (:mod:`repro.analysis.runner`) walks files, builds contexts, calls
rules, applies suppressions and the baseline, and hands the survivors to a
reporter.

Suppression comments
--------------------
Findings are suppressed per physical line, in the style of the mainstream
linters::

    self._pool.submit(task)  # reprolint: disable=RL001  optimistic read

    # reprolint: disable=RL001
    self._pool.submit(task)

The first form silences rules on the commented line itself; the second —
a comment with nothing else on its line — silences them on the *next*
non-comment line.  ``disable=RL001,RL004`` lists several rules; a bare
``disable`` (no ``=``) silences every rule, and ``disable-file=...`` anywhere
in the file silences the listed rules for the whole module.  Suppressions are
parsed from the token stream, not with regexes over raw lines, so a ``#``
inside a string literal never reads as a comment.
"""

from __future__ import annotations

import ast
import hashlib
import io
import re
import tokenize
from dataclasses import dataclass, field
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Set, Tuple, Type

__all__ = [
    "Finding",
    "ModuleContext",
    "Rule",
    "RuleError",
    "all_rules",
    "get_rule",
    "register_rule",
]


class RuleError(Exception):
    """Raised for unknown rule ids or invalid rule registrations."""


_RULE_ID_PATTERN = re.compile(r"^RL\d{3}$")

#: Comment grammar: ``# reprolint: disable`` / ``disable=RL001,RL002`` /
#: ``disable-file=RL004``.  Anything after the rule list is free-form
#: justification text and is ignored.
_SUPPRESSION_PATTERN = re.compile(
    r"#\s*reprolint:\s*(?P<verb>disable-file|disable)\s*(?:=\s*(?P<rules>[A-Za-z0-9_,\s]+?))?\s*(?:--|$)"
)

#: Sentinel stored in suppression sets meaning "every rule".
ALL_RULES = "*"


@dataclass(frozen=True)
class Finding:
    """One rule violation at one source location.

    ``symbol`` is the enclosing ``Class.method`` (or function) name when the
    rule can name one — it feeds the fingerprint so baseline entries survive
    unrelated edits that shift line numbers.
    """

    rule: str
    path: str
    line: int
    col: int
    message: str
    symbol: str = ""
    baselined: bool = False

    @property
    def fingerprint(self) -> str:
        """Stable identity for baseline matching: rule + path + symbol + message.

        Line and column are deliberately excluded so a grandfathered finding
        does not resurface every time an unrelated edit reflows the file.
        """
        payload = "\x1f".join((self.rule, self.path, self.symbol, self.message))
        return hashlib.sha256(payload.encode("utf-8")).hexdigest()[:16]

    def as_dict(self) -> Dict[str, object]:
        return {
            "rule": self.rule,
            "path": self.path,
            "line": self.line,
            "col": self.col,
            "message": self.message,
            "symbol": self.symbol,
            "fingerprint": self.fingerprint,
            "baselined": self.baselined,
        }

    def sort_key(self) -> Tuple[str, int, int, str]:
        return (self.path, self.line, self.col, self.rule)


@dataclass
class ModuleContext:
    """One parsed source file, shared by every rule that checks it.

    ``path`` is the *display* path (repo-relative where possible) — rules that
    scope themselves by location (RL004, RL005) match against it, and it is
    what fingerprints embed, so it must be stable across checkouts.
    """

    path: str
    source: str
    tree: ast.Module
    #: line number -> rule ids suppressed on that line (ALL_RULES for bare
    #: ``disable``).
    line_suppressions: Dict[int, Set[str]] = field(default_factory=dict)
    #: rule ids suppressed for the whole file.
    file_suppressions: Set[str] = field(default_factory=set)

    @classmethod
    def parse(cls, path: str, source: str) -> "ModuleContext":
        tree = ast.parse(source, filename=path)
        line_suppressions, file_suppressions = _collect_suppressions(source)
        return cls(
            path=path,
            source=source,
            tree=tree,
            line_suppressions=line_suppressions,
            file_suppressions=file_suppressions,
        )

    def is_suppressed(self, rule_id: str, line: int) -> bool:
        if rule_id in self.file_suppressions or ALL_RULES in self.file_suppressions:
            return True
        active = self.line_suppressions.get(line)
        if active is None:
            return False
        return rule_id in active or ALL_RULES in active


def _collect_suppressions(source: str) -> Tuple[Dict[int, Set[str]], Set[str]]:
    """Extract suppression comments from the token stream.

    Returns ``(line -> rules, file-wide rules)``.  A comment that is the only
    token on its physical line applies to the next line that carries code (the
    "disable-next-line" style); a trailing comment applies to its own line.
    Unreadable files (tokenize errors) yield no suppressions rather than
    crashing the whole lint run — the AST parse will surface the real error.
    """
    line_suppressions: Dict[int, Set[str]] = {}
    file_suppressions: Set[str] = set()
    #: comment-only suppressions waiting for the next code-bearing line.
    pending: List[Set[str]] = []
    try:
        tokens = list(tokenize.generate_tokens(io.StringIO(source).readline))
    except (tokenize.TokenError, SyntaxError, IndentationError):
        return line_suppressions, file_suppressions

    code_lines: Set[int] = set()
    for tok in tokens:
        if tok.type in (
            tokenize.COMMENT,
            tokenize.NL,
            tokenize.NEWLINE,
            tokenize.INDENT,
            tokenize.DEDENT,
            tokenize.ENCODING,
            tokenize.ENDMARKER,
        ):
            continue
        for lineno in range(tok.start[0], tok.end[0] + 1):
            code_lines.add(lineno)

    for tok in tokens:
        if tok.type != tokenize.COMMENT:
            continue
        match = _SUPPRESSION_PATTERN.search(tok.string)
        if match is None:
            continue
        listed = match.group("rules")
        rules: Set[str] = set()
        if listed is None:
            rules.add(ALL_RULES)
        else:
            rules.update(part.strip() for part in listed.split(",") if part.strip())
        if not rules:
            continue
        lineno = tok.start[0]
        if match.group("verb") == "disable-file":
            file_suppressions.update(rules)
        elif lineno in code_lines:
            line_suppressions.setdefault(lineno, set()).update(rules)
        else:
            pending.append(rules)
            continue

    if pending:
        # Re-walk comment-only suppressions and bind each to the first code
        # line after it.  (Done in a second pass so multi-line statements and
        # stacked comments resolve consistently.)
        comment_lines = [
            (tok.start[0], _SUPPRESSION_PATTERN.search(tok.string))
            for tok in tokens
            if tok.type == tokenize.COMMENT
        ]
        sorted_code_lines = sorted(code_lines)
        for lineno, match in comment_lines:
            if match is None or match.group("verb") != "disable" or lineno in code_lines:
                continue
            listed = match.group("rules")
            rules = (
                {ALL_RULES}
                if listed is None
                else {part.strip() for part in listed.split(",") if part.strip()}
            )
            if not rules:
                continue
            target = next((code for code in sorted_code_lines if code > lineno), None)
            if target is not None:
                line_suppressions.setdefault(target, set()).update(rules)

    return line_suppressions, file_suppressions


class Rule:
    """Base class for reprolint rules.

    Subclasses set the class attributes and implement :meth:`check`.  A rule
    instance is stateless across files; per-file state lives in locals of
    ``check`` (or visitor objects it builds).
    """

    id: str = ""
    name: str = ""
    description: str = ""
    rationale: str = ""

    def applies_to(self, ctx: ModuleContext) -> bool:
        """Whether this rule wants to see ``ctx`` at all (path scoping)."""
        return True

    def check(self, ctx: ModuleContext) -> Iterator[Finding]:
        raise NotImplementedError

    def finding(
        self,
        ctx: ModuleContext,
        node: ast.AST,
        message: str,
        *,
        symbol: str = "",
    ) -> Finding:
        return Finding(
            rule=self.id,
            path=ctx.path,
            line=getattr(node, "lineno", 0),
            col=getattr(node, "col_offset", 0),
            message=message,
            symbol=symbol,
        )


_REGISTRY: Dict[str, Rule] = {}


def register_rule(cls: Type[Rule]) -> Type[Rule]:
    """Class decorator adding one instance of ``cls`` to the global registry."""
    if not _RULE_ID_PATTERN.match(cls.id):
        raise RuleError(f"rule id {cls.id!r} does not match RLnnn")
    if cls.id in _REGISTRY:
        raise RuleError(f"duplicate rule id {cls.id}")
    _REGISTRY[cls.id] = cls()
    return cls


def all_rules() -> List[Rule]:
    """Registered rules, ordered by id."""
    return [_REGISTRY[rule_id] for rule_id in sorted(_REGISTRY)]


def get_rule(rule_id: str) -> Rule:
    try:
        return _REGISTRY[rule_id]
    except KeyError:
        raise RuleError(f"unknown rule {rule_id!r}") from None


def select_rules(selected: Optional[Iterable[str]]) -> List[Rule]:
    """Resolve ``--select`` ids (or None for everything) to rule instances."""
    if selected is None:
        return all_rules()
    resolved: List[Rule] = []
    seen: Set[str] = set()
    for rule_id in selected:
        rule_id = rule_id.strip()
        if not rule_id or rule_id in seen:
            continue
        seen.add(rule_id)
        resolved.append(get_rule(rule_id))
    return resolved


def qualname(stack: Sequence[str]) -> str:
    """Join an enclosing class/function stack into ``Outer.inner`` form."""
    return ".".join(stack)
