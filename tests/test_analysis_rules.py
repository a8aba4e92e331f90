"""Per-rule fixtures for the reprolint analyzers (RL001–RL008).

Each rule gets at least a true-positive, a suppressed, and a clean fixture.
Fixtures are in-memory modules linted through :func:`check_source` under a
*virtual path*, which is how the location-scoped rules (RL004, RL005) are
opted in or out.
"""

from __future__ import annotations

import textwrap

from repro.analysis.base import all_rules, get_rule
from repro.analysis.runner import check_source


def _lint(source: str, *, path: str = "src/repro/serving/module.py", rule=None):
    rules = [get_rule(rule)] if rule is not None else None
    return check_source(textwrap.dedent(source), path, rules)


def test_all_rules_registered():
    ids = [rule.id for rule in all_rules()]
    assert ids == [
        "RL001",
        "RL002",
        "RL004",
        "RL005",
        "RL006",
        "RL007",
        "RL008",
    ]
    for rule in all_rules():
        assert rule.name and rule.description and rule.rationale


# ---------------------------------------------------------------------------
# RL001 — lock discipline
# ---------------------------------------------------------------------------


RL001_TRUE_POSITIVE = """
import threading

class Metrics:
    def __init__(self):
        self._lock = threading.Lock()
        self._count = 0

    def record(self):
        with self._lock:
            self._count += 1

    def snapshot(self):
        return self._count
"""


def test_rl001_flags_bare_read_of_guarded_attribute():
    findings = _lint(RL001_TRUE_POSITIVE, rule="RL001")
    assert len(findings) == 1
    (finding,) = findings
    assert finding.rule == "RL001"
    assert finding.symbol == "Metrics.snapshot"
    assert "_count" in finding.message and "self._lock" in finding.message
    assert "read" in finding.message


def test_rl001_flags_bare_write_through():
    findings = _lint(
        """
        class Table:
            def put(self, key, value):
                with self._lock:
                    self._rows[key] = value

            def evict(self, key):
                self._rows[key] = None
        """,
        rule="RL001",
    )
    assert len(findings) == 1
    assert findings[0].symbol == "Table.evict"
    assert "written" in findings[0].message


def test_rl001_clean_when_every_access_holds_the_lock():
    findings = _lint(
        """
        class Metrics:
            def record(self):
                with self._lock:
                    self._count += 1

            def snapshot(self):
                with self._lock:
                    return self._count
        """,
        rule="RL001",
    )
    assert findings == []


def test_rl001_suppression_comment_silences_the_line():
    findings = _lint(
        RL001_TRUE_POSITIVE.replace(
            "return self._count",
            "return self._count  # reprolint: disable=RL001 -- optimistic read",
        ),
        rule="RL001",
    )
    assert findings == []


def test_rl001_docstring_annotation_declares_invisible_guard():
    # _latencies is only ever *called through*, never assigned under the
    # lock, so inference alone cannot see the guard — the annotation does.
    findings = _lint(
        """
        class Metrics:
            '''Histogram sink.

            Lock discipline:
                _latencies: guarded-by _lock
            '''

            def record(self, value):
                with self._lock:
                    self._latencies.record(value)

            def snapshot(self):
                return self._latencies.percentiles()
        """,
        rule="RL001",
    )
    assert len(findings) == 1
    assert findings[0].symbol == "Metrics.snapshot"


def test_rl001_init_and_locked_methods_exempt():
    findings = _lint(
        """
        class Cache:
            def __init__(self):
                self._entries = {}

            def put(self, key, value):
                with self._lock:
                    self._entries[key] = value

            def _get_locked(self, key):
                return self._entries.get(key)
        """,
        rule="RL001",
    )
    assert findings == []


def test_rl001_nested_closure_does_not_inherit_the_lock():
    findings = _lint(
        """
        class Pool:
            def submit(self):
                with self._lock:
                    self._jobs += 1
                    def task():
                        return self._jobs
                    return task
        """,
        rule="RL001",
    )
    assert len(findings) == 1
    assert "read" in findings[0].message


# ---------------------------------------------------------------------------
# RL002 — blocking calls in async bodies
# ---------------------------------------------------------------------------


def test_rl002_flags_time_sleep_in_async_def():
    findings = _lint(
        """
        import time

        async def handler():
            time.sleep(0.1)
        """,
        rule="RL002",
    )
    assert len(findings) == 1
    assert "time.sleep" in findings[0].message
    assert findings[0].symbol == "handler"


def test_rl002_flags_timed_future_result_and_shutdown_wait():
    findings = _lint(
        """
        async def drain(self):
            value = self._future.result(5.0)
            self._executor.shutdown(wait=True)
        """,
        rule="RL002",
    )
    messages = [finding.message for finding in findings]
    assert len(findings) == 2
    assert any("Future.result" in message for message in messages)
    assert any("shutdown" in message for message in messages)


def test_rl002_clean_bare_result_and_sync_function():
    findings = _lint(
        """
        import time

        def sync_path():
            time.sleep(0.1)

        async def fetch(self):
            return self._done_future.result()
        """,
        rule="RL002",
    )
    assert findings == []


def test_rl002_awaited_join_is_not_blocking():
    # ``await queue.join()`` yields to the loop; ``thread.join()`` parks it.
    findings = _lint(
        """
        async def drain(self):
            await self._queue.join()
            self._thread.join()
        """,
        rule="RL002",
    )
    assert len(findings) == 1
    assert ".join()" in findings[0].message


def test_rl002_nested_sync_closure_exempt():
    # A sync closure is what gets handed to run_in_executor — that is the fix.
    findings = _lint(
        """
        async def persist(self, path, payload):
            def write():
                path.write_text(payload)
            await self._loop.run_in_executor(None, write)
        """,
        rule="RL002",
    )
    assert findings == []


def test_rl002_suppression():
    findings = _lint(
        """
        import time

        async def handler():
            # reprolint: disable=RL002
            time.sleep(0.1)
        """,
        rule="RL002",
    )
    assert findings == []


# ---------------------------------------------------------------------------
# RL004 — protocol drift (scoped to the wire front ends)
# ---------------------------------------------------------------------------


RL004_DRIFT = """
def handle(op, distance):
    if op == "add":
        return f"error: bad op {op}"
    return "ok " + str(distance)
"""


def test_rl004_flags_inline_replies_and_vocabulary():
    findings = _lint(RL004_DRIFT, path="src/repro/serving/server.py", rule="RL004")
    assert len(findings) == 3
    messages = " ".join(finding.message for finding in findings)
    assert "protocol vocabulary literal 'add'" in messages
    assert "f-string" in messages
    assert "reply literal" in messages


def test_rl004_out_of_scope_module_untouched():
    # Same source under a non-front-end path: protocol.py itself (and any
    # other module) is allowed to define the very literals it exports.
    findings = _lint(RL004_DRIFT, path="src/repro/serving/protocol.py", rule="RL004")
    assert findings == []


def test_rl004_flags_wire_bytes_literal():
    findings = _lint(
        """
        REPLY = b"error: shutting down"
        """,
        path="src/repro/serving/aio.py",
        rule="RL004",
    )
    assert len(findings) == 1
    assert "bytes" in findings[0].message


def test_rl004_http_admin_strings_untouched():
    findings = _lint(
        """
        async def admin(self, request):
            if request.path == "/healthz":
                return {"content-type": "application/json"}
        """,
        path="src/repro/serving/aio.py",
        rule="RL004",
    )
    assert findings == []


def test_rl004_suppression():
    findings = _lint(
        """
        BANNER = "error: legacy banner"  # reprolint: disable=RL004
        """,
        path="src/repro/serving/server.py",
        rule="RL004",
    )
    assert findings == []


# ---------------------------------------------------------------------------
# RL005 — dtype discipline (scoped to core/ and serving/)
# ---------------------------------------------------------------------------


def test_rl005_flags_implicit_float64():
    findings = _lint(
        """
        import numpy as np

        def alloc(n):
            return np.zeros(n)
        """,
        path="src/repro/core/labels.py",
        rule="RL005",
    )
    assert len(findings) == 1
    assert "np.zeros" in findings[0].message


def test_rl005_accepts_keyword_and_positional_dtype():
    findings = _lint(
        """
        import numpy as np

        def alloc(n):
            a = np.zeros(n, dtype=np.int32)
            b = np.empty(n, np.uint16)
            c = np.full(n, -1, np.int64)
            d = np.zeros_like(a)
            return a, b, c, d
        """,
        path="src/repro/core/labels.py",
        rule="RL005",
    )
    assert findings == []


def test_rl005_out_of_scope_path_untouched():
    findings = _lint(
        """
        import numpy as np

        def alloc(n):
            return np.zeros(n)
        """,
        path="src/repro/experiments/table3.py",
        rule="RL005",
    )
    assert findings == []


def test_rl005_suppression():
    findings = _lint(
        """
        import numpy as np

        def alloc(n):
            return np.zeros(n)  # reprolint: disable=RL005
        """,
        path="src/repro/core/labels.py",
        rule="RL005",
    )
    assert findings == []


# ---------------------------------------------------------------------------
# RL006 — kernel hot loops (scoped to core/kernels/ and core/query.py)
# ---------------------------------------------------------------------------


def test_rl006_flags_comprehension_in_query_pairs():
    findings = _lint(
        """
        class Kernel:
            def query_pairs(self, sources, targets):
                return [self._one(s, t) for s, t in zip(sources, targets)]
        """,
        path="src/repro/core/kernels/bad.py",
        rule="RL006",
    )
    assert len(findings) == 1
    assert "query_pairs" in findings[0].message


def test_rl006_flags_dict_comprehension_in_one_to_many():
    findings = _lint(
        """
        def query_one_to_many(source, targets):
            return {t: dist(source, t) for t in targets}
        """,
        path="src/repro/core/query.py",
        rule="RL006",
    )
    assert len(findings) == 1
    assert "dict comprehension" in findings[0].message


def test_rl006_generator_expressions_and_other_functions_exempt():
    findings = _lint(
        """
        def query_pairs(sources, targets):
            assert all(s >= 0 for s in sources)
            return _vectorised(sources, targets)

        def helper(items):
            return [x + 1 for x in items]
        """,
        path="src/repro/core/kernels/ok.py",
        rule="RL006",
    )
    assert findings == []


def test_rl006_out_of_scope_path_untouched():
    findings = _lint(
        """
        def query_pairs(sources, targets):
            return [1 for _ in sources]
        """,
        path="src/repro/serving/engine.py",
        rule="RL006",
    )
    assert findings == []


# ---------------------------------------------------------------------------
# RL007 — bench scripts must emit through the obs schema
# ---------------------------------------------------------------------------


def test_rl007_flags_missing_adapter_and_json_writer():
    findings = _lint(
        """
        import json

        def run():
            json.dump({"qps": 1.0}, open("out.json", "w"))
            return json.dumps({"qps": 1.0})
        """,
        path="benchmarks/bench_fixture.py",
        rule="RL007",
    )
    assert len(findings) == 3
    assert any("collect_results" in f.message for f in findings)
    assert sum("json.dump" in f.message for f in findings) == 2


def test_rl007_clean_with_adapter_and_no_json_writes():
    findings = _lint(
        """
        import json

        def collect_results(*, smoke=False):
            from repro.obs import bench_result
            payload = json.loads('{"qps": 1.0}')
            return bench_result("fixture", [("qps", payload["qps"])], smoke=smoke)
        """,
        path="benchmarks/bench_fixture.py",
        rule="RL007",
    )
    assert findings == []


def test_rl007_out_of_scope_paths_untouched():
    source = """
    import json

    def run():
        json.dumps({})
    """
    for path in ("benchmarks/conftest.py", "src/repro/obs/schema.py", "tools/bench_x.py"):
        assert _lint(source, path=path, rule="RL007") == []


def test_rl007_suppression():
    findings = _lint(
        """
        import json

        def collect_results(*, smoke=False):
            return None

        def legacy_dump(results):
            return json.dumps(results)  # reprolint: disable=RL007
        """,
        path="benchmarks/bench_legacy.py",
        rule="RL007",
    )
    assert findings == []


# ---------------------------------------------------------------------------
# RL008 — metric names come from the repro.obs.names registry
# ---------------------------------------------------------------------------


def test_rl008_flags_registered_name_spelled_inline():
    findings = _lint(
        """
        def snapshot():
            return {"cache_hit_rate": 1.0}
        """,
        path="src/repro/serving/metrics.py",
        rule="RL008",
    )
    assert len(findings) == 1
    assert "repro.obs.names constant" in findings[0].message


def test_rl008_flags_unregistered_metric_shaped_literal():
    findings = _lint(
        """
        def snapshot():
            return {"made_up_widgets_total": 1.0}
        """,
        path="src/repro/serving/alerts.py",
        rule="RL008",
    )
    assert len(findings) == 1
    assert "not in" in findings[0].message
    assert "register" in findings[0].message


def test_rl008_clean_with_constants_fstrings_and_structural_keys():
    findings = _lint(
        '''
        from repro.obs import names

        def snapshot(name):
            """Docstring mentioning shadow_mismatches_total stays exempt."""
            return {
                names.CACHE_HIT_RATE: 1.0,
                f"latency_{name}_ms": 2.0,
                "num_shards": 4,
                "buckets": [],
            }
        ''',
        path="src/repro/obs/health.py",
        rule="RL008",
    )
    assert findings == []


def test_rl008_out_of_scope_paths_untouched():
    source = """
    def snapshot():
        return {"cache_hit_rate": 1.0, "made_up_widgets_total": 2.0}
    """
    for path in (
        "src/repro/obs/names.py",
        "src/repro/serving/server.py",
        "src/repro/obs/resources.py",
    ):
        assert _lint(source, path=path, rule="RL008") == []


def test_rl008_suppression():
    findings = _lint(
        """
        def probe(engine):
            return getattr(engine, "kernel_info", None)  # reprolint: disable=RL008
        """,
        path="src/repro/serving/metrics.py",
        rule="RL008",
    )
    assert findings == []


# ---------------------------------------------------------------------------
# Suppression mechanics shared by every rule
# ---------------------------------------------------------------------------


def test_disable_file_suppresses_whole_module():
    findings = _lint(
        """
        # reprolint: disable-file=RL005
        import numpy as np

        def a(n):
            return np.zeros(n)

        def b(n):
            return np.empty(n)
        """,
        path="src/repro/core/labels.py",
        rule="RL005",
    )
    assert findings == []


def test_bare_disable_silences_every_rule_on_the_line():
    findings = _lint(
        """
        import numpy as np

        def alloc(n):
            return np.zeros(n)  # reprolint: disable
        """,
        path="src/repro/core/labels.py",
    )
    assert findings == []


def test_suppression_for_other_rule_does_not_silence():
    findings = _lint(
        """
        import numpy as np

        def alloc(n):
            return np.zeros(n)  # reprolint: disable=RL001
        """,
        path="src/repro/core/labels.py",
        rule="RL005",
    )
    assert len(findings) == 1


def test_hash_inside_string_is_not_a_suppression():
    findings = _lint(
        """
        import numpy as np

        MARKER = "# reprolint: disable=RL005"

        def alloc(n):
            return np.zeros(n)
        """,
        path="src/repro/core/labels.py",
        rule="RL005",
    )
    assert len(findings) == 1


def test_fingerprint_stable_across_line_shifts():
    source = """
    import numpy as np

    def alloc(n):
        return np.zeros(n)
    """
    before = _lint(source, path="src/repro/core/labels.py", rule="RL005")
    after = _lint("\n\n\n" + textwrap.dedent(source), path="src/repro/core/labels.py", rule="RL005")
    assert before[0].line != after[0].line
    assert before[0].fingerprint == after[0].fingerprint
