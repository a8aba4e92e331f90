"""RL008 — metric and series names are spelled via ``repro.obs.names``.

PR 10 added an alerting engine whose rules reference metrics *by name*: a
rule watching ``"cache_hit_rate"`` silently evaluates to "no data" forever if
the exposition key is ever renamed, and an operator dashboard keyed on
``shadow_mismatches_total`` goes blank the same way.  The defence is a single
registry — :mod:`repro.obs.names` — that both the metrics snapshot/exposition
code and the alert rules import their names from, so a rename is one edit and
every consumer follows.

Scope: the modules that produce or consume metric names programmatically
(``serving/metrics.py``, ``serving/alerts.py``, ``obs/health.py``).  Flagged
there:

* a string literal whose value **is** a registered name
  (``repro.obs.names.REGISTERED_NAMES``) — respell it as the constant, the
  whole point is that grep-for-the-constant finds every consumer;
* a string literal that *looks* like a metric name (Prometheus-style
  ``lower_snake`` with a recognised unit/kind suffix: ``_total``,
  ``_seconds``, ``_bytes``, ``_ms``, ``_fds``, ``_rate``, ``_fraction``) but
  is **not** registered — register it in ``repro.obs.names`` and use the
  constant, or rename it so it no longer reads as a metric.

F-string constituents are exempt (derived names like ``latency_{name}_ms``
are templates, not spellable constants) and so are docstrings.  The registry
module itself is out of scope — it is where the literals are *supposed* to
live.
"""

from __future__ import annotations

import ast
import re
from typing import Iterator, Set

from repro.obs.names import REGISTERED_NAMES

from ..base import Finding, ModuleContext, Rule, register_rule

__all__ = ["MetricNameRule"]

#: Modules that mint or consume metric names; everything else is untouched.
_SCOPED_SUFFIXES = ("serving/metrics.py", "serving/alerts.py", "obs/health.py")

#: Prometheus-flavoured metric-name shape: ``lower_snake`` plus a unit/kind
#: suffix this codebase actually uses.  Deliberately narrower than the full
#: Prometheus grammar — structural dict keys ("buckets", "verbs") must
#: not trip it.
_METRIC_GRAMMAR = re.compile(
    r"^[a-z][a-z0-9_]*_(total|seconds|bytes|ms|fds|rate|fraction)$"
)


@register_rule
class MetricNameRule(Rule):
    id = "RL008"
    name = "metric-name-discipline"
    description = (
        "metric/series names in serving/metrics.py, serving/alerts.py and "
        "obs/health.py must be spelled via the repro.obs.names registry, "
        "never as inline string literals"
    )
    rationale = (
        "alert rules and dashboards reference metrics by name; an inline "
        "spelling lets a rename strand them on a key that no longer exists"
    )

    def applies_to(self, ctx: ModuleContext) -> bool:
        return ctx.path.replace("\\", "/").endswith(_SCOPED_SUFFIXES)

    def check(self, ctx: ModuleContext) -> Iterator[Finding]:
        exempt: Set[int] = set()
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.JoinedStr):
                # Constituent chunks of f-strings are name *templates*
                # (f"latency_{name}_ms"); the assembled name cannot be a
                # single constant, so they are out of the rule's reach.
                for value in node.values:
                    exempt.add(id(value))
            elif isinstance(
                node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)
            ):
                body = node.body
                if (
                    body
                    and isinstance(body[0], ast.Expr)
                    and isinstance(body[0].value, ast.Constant)
                ):
                    exempt.add(id(body[0].value))
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Constant) or id(node) in exempt:
                continue
            value = node.value
            if not isinstance(value, str):
                continue
            if value in REGISTERED_NAMES:
                yield self.finding(
                    ctx,
                    node,
                    f"metric name {value!r} spelled inline; use the "
                    "repro.obs.names constant",
                )
            elif _METRIC_GRAMMAR.match(value):
                yield self.finding(
                    ctx,
                    node,
                    f"string {value!r} reads as a metric name but is not in "
                    "repro.obs.names; register it there and use the constant "
                    "(or rename it so it no longer looks like a metric)",
                )
