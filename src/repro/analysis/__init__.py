"""reprolint — project-specific static analysis for the serving stack.

Generic linters cannot know that ``ServerMetrics`` counters belong to
``_lock``, or that wire replies are only legal when ``protocol.py`` formats
them.  This package encodes those invariants as AST rules and runs them in
CI (`repro-pll lint` / ``python -m repro.analysis``), so the regressions that
previously surfaced in review rounds (PR 4, PR 6) fail the build instead.

Layout:

* :mod:`~repro.analysis.base` — ``Finding`` / ``Rule`` / registry /
  suppression comments
* :mod:`~repro.analysis.rules` — the shipped rules (RL001, RL002 and
  RL004–RL008; RL003 is retired and its id is not reused)
* :mod:`~repro.analysis.runner` — file walking + rule execution
* :mod:`~repro.analysis.baseline` — grandfathered-finding files
* :mod:`~repro.analysis.reporters` — text / JSON output
* :mod:`~repro.analysis.cli` — the ``lint`` command surface

See the README "Static analysis" section for the rule catalogue and the
suppression / baseline workflow.
"""

from . import rules  # noqa: F401  (registers every shipped rule on import)
from .base import Finding, ModuleContext, Rule, all_rules, get_rule, register_rule
from .baseline import load_baseline, write_baseline
from .reporters import LintReport, render_json, render_text
from .runner import check_source, run_lint

__all__ = [
    "Finding",
    "LintReport",
    "ModuleContext",
    "Rule",
    "all_rules",
    "check_source",
    "get_rule",
    "load_baseline",
    "register_rule",
    "render_json",
    "render_text",
    "run_lint",
    "write_baseline",
]
