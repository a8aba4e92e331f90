"""RL001 — lock discipline: guarded attributes must not be touched bare.

The serving stack guards mutable state with per-object locks
(``ServerMetrics._lock``, ``SnapshotManager._write_lock``).  The recurring
regression — PR 6 shipped a fix for exactly this in ``num_queries`` — is a
*read* of such a field added outside the lock, which is a torn read or a
stale publish on a relaxed-memory runtime and is invisible to tests.

The rule infers the guarded set per class: any ``self.<attr>`` written
(assigned, aug-assigned, or written *through* — ``self._x[k] = v``,
``self._x.y = v``) while a ``with self.<lock>:`` block is lexically open, in
any method, is guarded by that lock.  Every other access of that attribute
anywhere in the class must then also hold one of its guarding locks.

A lock is any ``self`` attribute whose name contains ``lock`` and that is
used as a (possibly async) context manager.  Conventions the rule honours:

* ``__init__``/``__new__`` neither create guards nor get flagged — the object
  is not yet shared during construction.
* Methods named ``*_locked`` are assumed to be called with the lock already
  held (the codebase convention: ``LRUCache._get_locked``); they are
  skipped entirely.
* A class docstring can declare guards the inference cannot see (state only
  ever mutated through method calls, e.g. ``self._latencies.record(...)``)::

      _latencies: guarded-by _lock

* Deliberate lock-free reads (RCU-style snapshot pointers, optimistic
  double-checked probes) carry a ``# reprolint: disable=RL001`` suppression
  with a justification — making every such decision visible in the diff.
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass
from typing import Dict, FrozenSet, Iterator, List, Optional, Set

from ..base import Finding, ModuleContext, Rule, register_rule

__all__ = ["LockDisciplineRule"]

#: ``_latencies: guarded-by _lock`` (an optional leading ``self.`` on either
#: side is tolerated) inside a class docstring.
_ANNOTATION_PATTERN = re.compile(
    r"^\s*(?:self\.)?(?P<attr>[A-Za-z_]\w*)\s*:\s*guarded-by\s+(?:self\.)?(?P<lock>[A-Za-z_]\w*)\s*$",
    re.MULTILINE,
)

#: Methods that run before the object is shared between threads.
_CONSTRUCTION_METHODS = {"__init__", "__new__", "__post_init__"}


def _is_lock_name(name: str) -> bool:
    return "lock" in name.lower()


def _self_attr(node: ast.AST) -> Optional[str]:
    """``self.<attr>`` -> attr name, else None."""
    if (
        isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id == "self"
    ):
        return node.attr
    return None


def _base_self_attr(node: ast.AST) -> Optional[str]:
    """Innermost ``self.<attr>`` under a chain of attribute/subscript access.

    ``self._segments[k]`` -> ``_segments``; ``self._stats.misses`` -> ``_stats``.
    """
    while isinstance(node, (ast.Attribute, ast.Subscript)):
        direct = _self_attr(node)
        if direct is not None:
            return direct
        node = node.value
    return None


@dataclass
class _Access:
    attr: str
    node: ast.AST
    method: str
    held: FrozenSet[str]
    is_write: bool


class _MethodScanner:
    """Collect every ``self.<attr>`` access in one method with the lock set held."""

    def __init__(self, method_name: str) -> None:
        self.method = method_name
        self.accesses: List[_Access] = []

    def scan(self, method: ast.AST) -> List[_Access]:
        body = getattr(method, "body", [])
        for stmt in body:
            self._walk(stmt, frozenset())
        return self.accesses

    # -- recording ---------------------------------------------------------

    def _record(self, attr: str, node: ast.AST, held: FrozenSet[str], is_write: bool) -> None:
        self.accesses.append(
            _Access(attr=attr, node=node, method=self.method, held=held, is_write=is_write)
        )

    def _record_target(self, target: ast.AST, held: FrozenSet[str]) -> None:
        """An assignment/delete target: find the underlying self attribute."""
        if isinstance(target, (ast.Tuple, ast.List)):
            for elt in target.elts:
                self._record_target(elt, held)
            return
        if isinstance(target, ast.Starred):
            self._record_target(target.value, held)
            return
        attr = _base_self_attr(target)
        if attr is not None:
            self._record(attr, target, held, is_write=True)
        # Index/attribute expressions inside the target still *read* things
        # (``self._a[self._b] = v`` reads ``_b``): walk the non-self parts.
        if isinstance(target, ast.Subscript):
            self._walk(target.slice, held)
            if _base_self_attr(target.value) is None:
                self._walk(target.value, held)
        elif isinstance(target, ast.Attribute) and _self_attr(target) is None:
            if _base_self_attr(target) is None:
                self._walk(target.value, held)

    # -- traversal ---------------------------------------------------------

    def _locks_of(self, with_node: ast.AST) -> FrozenSet[str]:
        locks: Set[str] = set()
        for item in getattr(with_node, "items", []):
            attr = _self_attr(item.context_expr)
            if attr is not None and _is_lock_name(attr):
                locks.add(attr)
        return frozenset(locks)

    def _walk(self, node: ast.AST, held: FrozenSet[str]) -> None:
        if isinstance(node, (ast.With, ast.AsyncWith)):
            for item in node.items:
                self._walk(item.context_expr, held)
                if item.optional_vars is not None:
                    self._walk(item.optional_vars, held)
            inner = held | self._locks_of(node)
            for stmt in node.body:
                self._walk(stmt, inner)
            return
        if isinstance(node, ast.Assign):
            for target in node.targets:
                self._record_target(target, held)
            self._walk(node.value, held)
            return
        if isinstance(node, ast.AugAssign):
            self._record_target(node.target, held)
            self._walk(node.value, held)
            return
        if isinstance(node, ast.AnnAssign):
            if node.value is not None:
                self._record_target(node.target, held)
                self._walk(node.value, held)
            return
        if isinstance(node, ast.Delete):
            for target in node.targets:
                self._record_target(target, held)
            return
        if isinstance(node, ast.Attribute):
            attr = _self_attr(node)
            if attr is not None:
                self._record(attr, node, held, is_write=isinstance(node.ctx, (ast.Store, ast.Del)))
                return
            self._walk(node.value, held)
            return
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda, ast.ClassDef)):
            # A nested callable may run on another thread or after the lock is
            # released; its body cannot be assumed to hold the lock.  Walk it
            # with an empty held set so bare touches still register.
            for child in ast.iter_child_nodes(node):
                self._walk(child, frozenset())
            return
        for child in ast.iter_child_nodes(node):
            self._walk(child, held)


def _docstring_guards(cls: ast.ClassDef) -> Dict[str, Set[str]]:
    guards: Dict[str, Set[str]] = {}
    docstring = ast.get_docstring(cls, clean=False) or ""
    for match in _ANNOTATION_PATTERN.finditer(docstring):
        guards.setdefault(match.group("attr"), set()).add(match.group("lock"))
    return guards


@register_rule
class LockDisciplineRule(Rule):
    id = "RL001"
    name = "lock-discipline"
    description = (
        "attributes written under a `with self.<lock>:` block must hold the lock "
        "on every other access in the class"
    )
    rationale = (
        "unlocked reads of lock-guarded serving state (metrics counters, pool "
        "handles, pending-update ledgers) are torn-read races that tests never catch"
    )

    def check(self, ctx: ModuleContext) -> Iterator[Finding]:
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.ClassDef):
                yield from self._check_class(ctx, node)

    def _check_class(self, ctx: ModuleContext, cls: ast.ClassDef) -> Iterator[Finding]:
        methods = [
            stmt
            for stmt in cls.body
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef))
        ]
        if not methods:
            return

        accesses: List[_Access] = []
        for method in methods:
            if method.name in _CONSTRUCTION_METHODS or method.name.endswith("_locked"):
                continue
            accesses.extend(_MethodScanner(method.name).scan(method))

        # Guard inference: attribute -> set of locks it was written under.
        guards: Dict[str, Set[str]] = {}
        for access in accesses:
            if access.is_write and access.held:
                guards.setdefault(access.attr, set()).update(access.held)
        for attr, locks in _docstring_guards(cls).items():
            guards.setdefault(attr, set()).update(locks)

        # The locks themselves are accessed bare by construction.
        for lock_name in list(guards):
            if _is_lock_name(lock_name):
                del guards[lock_name]
        if not guards:
            return

        for access in accesses:
            locks = guards.get(access.attr)
            if locks is None or access.held & locks:
                continue
            if _is_lock_name(access.attr):
                continue
            lock_list = " or ".join(f"self.{name}" for name in sorted(locks))
            verb = "written" if access.is_write else "read"
            yield self.finding(
                ctx,
                access.node,
                f"'{access.attr}' is guarded by {lock_list} but {verb} without it",
                symbol=f"{cls.name}.{access.method}",
            )
