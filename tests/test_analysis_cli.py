"""CLI, baseline and reporter tests for reprolint.

Covers the baseline round-trip (``--write-baseline`` then re-lint), the JSON
report schema the tooling contract pins, exit codes, and the self-check: the
committed tree must lint clean with the committed baseline.
"""

from __future__ import annotations

import contextlib
import io
import json
from collections import Counter
from pathlib import Path

import pytest

from repro.analysis.baseline import (
    BaselineError,
    apply_baseline,
    load_baseline,
    write_baseline,
)
from repro.analysis.cli import EXIT_FINDINGS, EXIT_OK, EXIT_USAGE, main
from repro.analysis.runner import check_source
from repro.cli import main as repro_main

REPO_ROOT = Path(__file__).resolve().parents[1]

VIOLATION = """\
import numpy as np


def alloc(n):
    return np.zeros(n)
"""

SECOND_VIOLATION = """\
import numpy as np


def alloc2(n):
    return np.empty(n)
"""


def _run(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv)
    return code, out.getvalue()


@pytest.fixture()
def project(tmp_path, monkeypatch):
    """A tiny project with one RL005 violation, cwd-relative like a checkout."""
    core = tmp_path / "src" / "repro" / "core"
    core.mkdir(parents=True)
    (core / "alloc.py").write_text(VIOLATION, encoding="utf-8")
    monkeypatch.chdir(tmp_path)
    return tmp_path


# ---------------------------------------------------------------------------
# Exit codes and basic CLI behaviour
# ---------------------------------------------------------------------------


def test_lint_reports_finding_and_exits_1(project):
    code, output = _run(["src"])
    assert code == EXIT_FINDINGS
    assert "RL005" in output
    assert "src/repro/core/alloc.py:5:" in output
    assert "1 new" in output


def test_unknown_rule_is_a_usage_error(project):
    code, output = _run(["src", "--select", "RL999"])
    assert code == EXIT_USAGE
    assert "unknown rule" in output


def test_select_scopes_the_run(project):
    code, _ = _run(["src", "--select", "RL001,RL004"])
    assert code == EXIT_OK


def test_list_rules_names_all_rules():
    code, output = _run(["--list-rules"])
    assert code == EXIT_OK
    for rule_id in ("RL001", "RL002", "RL004", "RL005", "RL006", "RL007", "RL008"):
        assert rule_id in output
    # RL003 (shared-memory lifecycle) is retired; its id is not reused.
    assert "RL003" not in output


def test_unparsable_file_fails_the_run(project):
    (project / "src" / "repro" / "core" / "broken.py").write_text(
        "def broken(:\n", encoding="utf-8"
    )
    code, output = _run(["src"])
    assert code == EXIT_FINDINGS
    assert "cannot parse" in output


# ---------------------------------------------------------------------------
# Baseline round-trip
# ---------------------------------------------------------------------------


def test_baseline_round_trip(project):
    # 1. Grandfather the existing violation.
    code, output = _run(["src", "--write-baseline"])
    assert code == EXIT_OK
    assert "wrote 1 finding(s)" in output
    baseline_path = project / "reprolint-baseline.json"
    assert baseline_path.exists()

    # 2. Re-lint: the finding is absorbed, the run is clean.
    code, output = _run(["src"])
    assert code == EXIT_OK
    assert "1 baselined" in output

    # 3. A *new* violation still fails even with the baseline in place.
    (project / "src" / "repro" / "core" / "alloc2.py").write_text(
        SECOND_VIOLATION, encoding="utf-8"
    )
    code, output = _run(["src"])
    assert code == EXIT_FINDINGS
    assert "1 new" in output and "1 baselined" in output

    # 4. --no-baseline reports everything as new again.
    code, output = _run(["src", "--no-baseline"])
    assert code == EXIT_FINDINGS
    assert "2 new" in output


def test_baseline_entry_absorbs_at_most_one_finding(project):
    findings = check_source(VIOLATION, "src/repro/core/alloc.py")
    assert len(findings) == 1
    fingerprints = load_baseline_from_findings(findings)
    # Two identical findings against one baseline entry: one is new.
    annotated, num_new = apply_baseline(findings * 2, fingerprints)
    assert num_new == 1
    assert [finding.baselined for finding in annotated] == [True, False]


def load_baseline_from_findings(findings):
    return Counter(finding.fingerprint for finding in findings)


def test_baseline_file_round_trips_on_disk(tmp_path):
    findings = check_source(VIOLATION, "src/repro/core/alloc.py")
    path = tmp_path / "baseline.json"
    write_baseline(path, findings)
    payload = json.loads(path.read_text(encoding="utf-8"))
    assert payload["version"] == 1
    (entry,) = payload["findings"]
    assert set(entry) == {"rule", "path", "symbol", "message", "fingerprint"}
    assert load_baseline(path) == load_baseline_from_findings(findings)


def test_malformed_baseline_is_a_usage_error(project):
    (project / "reprolint-baseline.json").write_text("[]", encoding="utf-8")
    code, output = _run(["src"])
    assert code == EXIT_USAGE
    assert "unsupported structure" in output


def test_load_baseline_rejects_bad_entries(tmp_path):
    path = tmp_path / "baseline.json"
    path.write_text('{"version": 1, "findings": [{"rule": "RL005"}]}', encoding="utf-8")
    with pytest.raises(BaselineError):
        load_baseline(path)


# ---------------------------------------------------------------------------
# JSON reporter schema
# ---------------------------------------------------------------------------


def test_json_report_schema(project):
    code, output = _run(["src", "--format", "json"])
    assert code == EXIT_FINDINGS
    payload = json.loads(output)
    assert set(payload) == {"version", "ok", "summary", "rules", "findings", "errors"}
    assert payload["version"] == 1
    assert payload["ok"] is False
    assert set(payload["summary"]) == {
        "files",
        "findings",
        "new",
        "baselined",
        "suppressed",
        "errors",
    }
    assert set(payload["rules"]) == {
        "RL001",
        "RL002",
        "RL004",
        "RL005",
        "RL006",
        "RL007",
        "RL008",
    }
    (finding,) = payload["findings"]
    assert set(finding) == {
        "rule",
        "path",
        "line",
        "col",
        "message",
        "symbol",
        "fingerprint",
        "baselined",
    }
    assert finding["rule"] == "RL005"
    assert finding["path"] == "src/repro/core/alloc.py"


# ---------------------------------------------------------------------------
# repro-pll integration and the self-check
# ---------------------------------------------------------------------------


def test_repro_pll_lint_subcommand(project):
    assert repro_main(["lint", "src"]) == EXIT_FINDINGS
    assert repro_main(["lint", "src", "--select", "RL001"]) == EXIT_OK


def test_committed_tree_lints_clean(monkeypatch):
    """`repro-pll lint src/` must exit 0 on the committed tree.

    The committed baseline is picked up from the repo root; any new finding
    in src/ fails this test exactly as it would fail CI.
    """
    monkeypatch.chdir(REPO_ROOT)
    code, output = _run(["src"])
    assert code == EXIT_OK, output
    assert "0 new" in output


def test_committed_baseline_is_nearly_empty():
    payload = json.loads(
        (REPO_ROOT / "reprolint-baseline.json").read_text(encoding="utf-8")
    )
    assert payload["version"] == 1
    assert len(payload["findings"]) <= 3
