"""Command surface for reprolint: ``repro-pll lint`` and ``python -m repro.analysis``.

Exit codes: ``0`` — clean (every finding suppressed or baselined); ``1`` —
new findings (or unparsable files); ``2`` — usage / IO errors (unknown rule,
unreadable baseline).
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import IO, Optional, Sequence

from .base import RuleError, all_rules, select_rules
from .baseline import DEFAULT_BASELINE_NAME, BaselineError, load_baseline, write_baseline
from .reporters import render_json, render_text
from .runner import run_lint

__all__ = ["add_lint_arguments", "main", "run_lint_command"]

EXIT_OK = 0
EXIT_FINDINGS = 1
EXIT_USAGE = 2


def add_lint_arguments(parser: argparse.ArgumentParser) -> None:
    """Install the ``lint`` options (shared by the repro-pll subcommand)."""
    parser.add_argument(
        "paths",
        nargs="*",
        default=["src"],
        help="files or directories to lint (default: src)",
    )
    parser.add_argument(
        "--format",
        choices=("text", "json"),
        default="text",
        help="report format (default: text)",
    )
    parser.add_argument(
        "--select",
        metavar="RULES",
        default=None,
        help="comma-separated rule ids to run (default: all registered rules)",
    )
    parser.add_argument(
        "--baseline",
        metavar="FILE",
        default=None,
        help=(
            "baseline file of grandfathered findings "
            f"(default: {DEFAULT_BASELINE_NAME} in the current directory, if present)"
        ),
    )
    parser.add_argument(
        "--no-baseline",
        action="store_true",
        help="ignore any baseline file; report every finding as new",
    )
    parser.add_argument(
        "--write-baseline",
        action="store_true",
        help="rewrite the baseline file from the current findings and exit 0",
    )
    parser.add_argument(
        "--show-baselined",
        action="store_true",
        help="include baselined findings in text output",
    )
    parser.add_argument(
        "--list-rules",
        action="store_true",
        help="list registered rules and exit",
    )


def _resolve_baseline_path(args: argparse.Namespace) -> Optional[Path]:
    if args.no_baseline:
        return None
    if args.baseline is not None:
        return Path(args.baseline)
    default = Path(DEFAULT_BASELINE_NAME)
    if default.exists() or args.write_baseline:
        return default
    return None


def run_lint_command(args: argparse.Namespace, *, stdout: Optional[IO[str]] = None) -> int:
    """Execute a parsed ``lint`` invocation; returns the process exit code."""
    out = stdout if stdout is not None else sys.stdout

    if args.list_rules:
        for rule in all_rules():
            out.write(f"{rule.id}  {rule.name}: {rule.description}\n")
        return EXIT_OK

    try:
        rules = select_rules(args.select.split(",")) if args.select else all_rules()
    except RuleError as exc:
        out.write(f"error: {exc}\n")
        return EXIT_USAGE

    baseline_path = _resolve_baseline_path(args)
    fingerprints = None
    if baseline_path is not None and baseline_path.exists() and not args.write_baseline:
        try:
            fingerprints = load_baseline(baseline_path)
        except BaselineError as exc:
            out.write(f"error: {exc}\n")
            return EXIT_USAGE

    report = run_lint(args.paths, rules=rules, baseline=fingerprints)

    if args.write_baseline:
        if baseline_path is None:
            out.write("error: --write-baseline conflicts with --no-baseline\n")
            return EXIT_USAGE
        write_baseline(baseline_path, report.findings)
        out.write(
            f"wrote {len(report.findings)} finding(s) to {baseline_path}\n"
        )
        return EXIT_OK

    if args.format == "json":
        out.write(render_json(report))
    else:
        out.write(render_text(report, show_baselined=args.show_baselined))
    return EXIT_OK if report.ok else EXIT_FINDINGS


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.analysis",
        description="reprolint: project-specific static analysis (rules RL001-RL008)",
    )
    add_lint_arguments(parser)
    args = parser.parse_args(list(argv) if argv is not None else None)
    return run_lint_command(args)


if __name__ == "__main__":  # pragma: no cover - exercised via __main__.py
    sys.exit(main())
