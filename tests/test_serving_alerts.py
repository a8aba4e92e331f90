"""Tests for serving-side health glue: monitor, default rules, shadow canary.

The integration tests inject a latency-SLO breach by feeding synthetic
histogram snapshots through a :class:`HealthMonitor` attached to a *real*
front end, then watch the ``pending → firing → resolved`` lifecycle surface
everywhere the tentpole promises: the ``/metrics`` exposition (``ALERTS``
series + rollup gauges), the ``/alerts`` report, and the ``ALERTS`` wire verb
— through the blocking ``QueryServer`` facade (stdio) and the asyncio front
end's TCP/HTTP surfaces.
"""

from __future__ import annotations

import asyncio
import io
import json

import numpy as np
import pytest

from repro.core.index import PrunedLandmarkLabeling
from repro.obs import Metric, bench_result, compare_results, has_regressions, names
from repro.obs.health import BurnRateRule, HealthEngine
from repro.serving import (
    AsyncQueryFrontend,
    BatchQueryEngine,
    HealthMonitor,
    QueryServer,
    ShadowCanary,
    alerts_wire_reply,
    default_alert_rules,
    serve_stdio,
)
from repro.serving.alerts import augment_snapshot
from repro.serving.metrics import DEFAULT_LATENCY_BUCKETS, render_prometheus_text


def _wire(server, line):
    """One protocol line through the server's stdio session; the reply."""
    out_stream = io.StringIO()
    serve_stdio(server, io.StringIO(line + "\n"), out_stream)
    return out_stream.getvalue().rstrip("\n")


@pytest.fixture
def engine(small_social_graph):
    index = PrunedLandmarkLabeling(num_bit_parallel_roots=2).build(small_social_graph)
    return BatchQueryEngine(index)


class _EventLog:
    def __init__(self):
        self.events = []

    def event(self, name, **fields):
        self.events.append((name, fields))


def _latency_snapshot(count, good):
    """Synthetic snapshot carrying only the latency histogram (cumulative)."""
    return {
        "histograms": {
            names.LATENCY_SECONDS: {
                "buckets": [(0.025, float(good)), (float("inf"), float(count))],
                "count": float(count),
            }
        }
    }


def _slo_rule():
    """The default burn-rate rule shrunk to test-sized windows."""
    return BurnRateRule(
        name="LatencySLOBurnRate",
        severity="page",
        histogram=names.LATENCY_SECONDS,
        objective=0.99,
        threshold_seconds=0.025,
        short_window_seconds=5.0,
        long_window_seconds=10.0,
        burn_factor=14.4,
        for_seconds=5.0,
    )


class _SLOBreachScript:
    """Drives a monitor through healthy → cliff → recovery, one tick at a time.

    The cumulative counters mimic a server that suddenly answers everything
    slower than the SLO threshold (the cliff freezes the ``good`` bucket),
    then recovers behind a flood of fast requests that dilutes both burn
    windows below the factor.
    """

    def __init__(self):
        self.feed = {"snap": {}}
        self.count = 0.0
        self.good = 0.0
        self.monitor = HealthMonitor(
            lambda: self.feed["snap"],
            rules=[_slo_rule()],
            interval_seconds=3600.0,
        )

    def _tick(self, now):
        self.feed["snap"] = _latency_snapshot(self.count, self.good)
        return self.monitor.tick(now=float(now))

    def run_healthy(self):
        events = []
        for t in range(13):
            self.count = self.good = 100.0 * t
            events += self._tick(t)
        return events

    def run_cliff_to_pending(self):
        self.count += 10_000.0  # good frozen: every new request is slow
        return self._tick(13)

    def run_cliff_to_firing(self):
        events = []
        for t in range(14, 19):
            self.count += 10_000.0
            events += self._tick(t)
        return events

    def run_recovery(self):
        self.count += 10_000_000.0
        self.good += 10_000_000.0
        return self._tick(19)


class TestDefaultAlertRules:
    def test_rule_names_unique_and_engine_constructs(self):
        rules = default_alert_rules()
        assert len({rule.name for rule in rules}) == len(rules) == 8
        HealthEngine(rules)  # must not raise

    def test_burn_rule_threshold_is_a_histogram_bound(self):
        """The SLO threshold must coincide with a bucket edge, or the burn
        rate silently evaluates to no-data forever."""
        (burn,) = [r for r in default_alert_rules() if isinstance(r, BurnRateRule)]
        burn.validate_bounds(DEFAULT_LATENCY_BUCKETS)

    def test_rules_read_only_registered_names(self):
        from repro.obs.names import REGISTERED_NAMES

        for rule in default_alert_rules():
            for attr in ("metric", "denominator", "guard_metric", "histogram"):
                value = getattr(rule, attr, None)
                if isinstance(value, str):
                    assert value in REGISTERED_NAMES
            for attr in ("numerator",):
                for name in getattr(rule, attr, ()):
                    assert name in REGISTERED_NAMES


class TestHealthMonitor:
    def test_interval_must_be_positive(self):
        with pytest.raises(ValueError):
            HealthMonitor(dict, interval_seconds=0.0)

    def test_background_thread_ticks(self):
        monitor = HealthMonitor(dict, interval_seconds=0.005)
        with monitor:
            deadline = 100
            while monitor.num_ticks == 0 and deadline:
                deadline -= 1
                import time

                time.sleep(0.005)
        assert monitor.num_ticks > 0
        # stop() is idempotent and safe after the context exit.
        monitor.stop()

    def test_failing_snapshot_source_does_not_kill_monitor(self):
        log = _EventLog()

        def broken():
            raise RuntimeError("snapshot source down")

        monitor = HealthMonitor(broken, interval_seconds=60.0, logger=log)
        assert monitor.tick(now=0.0) == []
        assert log.events[0][0] == "health_snapshot_error"

    def test_wire_reply_without_monitor_reports_disabled(self):
        payload = json.loads(alerts_wire_reply(None))
        assert payload == {
            "enabled": False,
            "rules": [],
            "firing": [],
            "pending": [],
            "recent": [],
        }

    def test_augment_snapshot_merges_gauges_and_active_alerts(self):
        monitor = HealthMonitor(dict, rules=[_slo_rule()], interval_seconds=60.0)
        stats = augment_snapshot({"qps": 1.0}, health=monitor)
        assert stats["alerts_firing"] == 0.0
        assert stats["alerts_pending"] == 0.0
        # The alerts list only appears when something is pending/firing.
        assert "alerts" not in stats


class TestShadowCanary:
    def test_constructor_validation(self):
        with pytest.raises(ValueError):
            ShadowCanary(1.5)
        with pytest.raises(ValueError):
            ShadowCanary(-0.1)
        with pytest.raises(ValueError):
            ShadowCanary(0.5, max_queue=0)
        with pytest.raises(ValueError):
            ShadowCanary(0.5, max_pairs_per_batch=0)

    def test_correct_batch_verifies_clean(self, engine):
        sources = np.array([0, 1, 2, 3], dtype=np.int64)
        targets = np.array([5, 6, 7, 8], dtype=np.int64)
        distances = engine.query_batch(sources, targets)
        with ShadowCanary(1.0, seed=7) as shadow:
            assert shadow.submit(engine, sources, targets, distances)
            shadow.flush()
            stats = shadow.stats()
        assert stats[names.SHADOW_BATCHES_TOTAL] == 1.0
        assert stats[names.SHADOW_PAIRS_TOTAL] == 4.0
        assert stats[names.SHADOW_MISMATCHES_TOTAL] == 0.0
        assert stats[names.SHADOW_DROPPED_TOTAL] == 0.0

    def test_wrong_distances_counted_and_logged(self, engine):
        log = _EventLog()
        sources = np.array([0, 1], dtype=np.int64)
        targets = np.array([5, 6], dtype=np.int64)
        wrong = engine.query_batch(sources, targets) + 1.0
        with ShadowCanary(1.0, seed=7, logger=log) as shadow:
            shadow.submit(engine, sources, targets, wrong)
            shadow.flush()
            stats = shadow.stats()
        assert stats[names.SHADOW_MISMATCHES_TOTAL] == 2.0
        (event,) = [e for e in log.events if e[0] == "shadow_mismatch"]
        assert event[1]["count"] == 2
        example = event[1]["examples"][0]
        assert example["served"] == example["expected"] + 1.0

    def test_zero_rate_or_stopped_canary_never_samples(self, engine):
        sources = np.array([0], dtype=np.int64)
        targets = np.array([5], dtype=np.int64)
        distances = engine.query_batch(sources, targets)
        zero = ShadowCanary(0.0)
        zero.start()
        assert not zero.maybe_submit(engine, sources, targets, distances)
        zero.stop()
        stopped = ShadowCanary(1.0)  # never started: no worker to hand off to
        assert not stopped.maybe_submit(engine, sources, targets, distances)

    def test_full_queue_drops_and_counts(self, engine):
        sources = np.array([0], dtype=np.int64)
        targets = np.array([5], dtype=np.int64)
        distances = engine.query_batch(sources, targets)
        shadow = ShadowCanary(1.0, max_queue=1)  # worker not started: queue fills
        assert shadow.submit(engine, sources, targets, distances)
        assert not shadow.submit(engine, sources, targets, distances)
        assert shadow.stats()[names.SHADOW_DROPPED_TOTAL] == 1.0
        shadow.start()
        shadow.flush()
        shadow.stop()
        assert shadow.stats()[names.SHADOW_MISMATCHES_TOTAL] == 0.0

    def test_oversized_batch_truncated_to_cap(self, engine):
        sources = np.zeros(8, dtype=np.int64)
        targets = np.full(8, 5, dtype=np.int64)
        distances = engine.query_batch(sources, targets)
        with ShadowCanary(1.0, max_pairs_per_batch=3) as shadow:
            shadow.submit(engine, sources, targets, distances)
            shadow.flush()
            assert shadow.stats()[names.SHADOW_PAIRS_TOTAL] == 3.0


class TestThreadedServerIntegration:
    def test_slo_breach_lifecycle_on_all_surfaces(self, engine):
        """pending → firing → resolved visible on /metrics text, the alerts
        report, and the ALERTS wire verb of the blocking server's stdio
        session."""
        script = _SLOBreachScript()
        with QueryServer(engine) as server:
            server.health = script.monitor

            assert script.run_healthy() == []

            assert script.run_cliff_to_pending() == ["LatencySLOBurnRate:pending"]
            stats = server.metrics_snapshot()
            assert stats["alerts_pending"] == 1.0 and stats["alerts_firing"] == 0.0
            text = render_prometheus_text(stats)
            assert (
                'ALERTS{alertname="LatencySLOBurnRate",severity="page"'
                ',alertstate="pending"} 1' in text
            )
            payload = json.loads(_wire(server, "ALERTS"))
            assert payload["enabled"] is True
            assert [a["alertname"] for a in payload["pending"]] == [
                "LatencySLOBurnRate"
            ]
            assert payload["firing"] == []

            assert script.run_cliff_to_firing() == ["LatencySLOBurnRate:firing"]
            stats = server.metrics_snapshot()
            assert stats["alerts_firing"] == 1.0 and stats["alerts_pending"] == 0.0
            text = render_prometheus_text(stats)
            assert (
                'ALERTS{alertname="LatencySLOBurnRate",severity="page"'
                ',alertstate="firing"} 1' in text
            )
            # Command normalisation: the verb is case-insensitive like STATS.
            payload = json.loads(_wire(server, "alerts"))
            assert [a["alertname"] for a in payload["firing"]] == [
                "LatencySLOBurnRate"
            ]

            assert script.run_recovery() == ["LatencySLOBurnRate:resolved"]
            stats = server.metrics_snapshot()
            assert stats["alerts_firing"] == 0.0 and stats["alerts_pending"] == 0.0
            assert "alerts" not in stats
            assert "ALERTS{" not in render_prometheus_text(stats)
            payload = json.loads(_wire(server, "ALERTS"))
            assert payload["firing"] == [] and payload["pending"] == []
            assert [r["alertname"] for r in payload["recent"]] == [
                "LatencySLOBurnRate"
            ]

    def test_wire_verb_without_monitor_reports_disabled(self, engine):
        with QueryServer(engine) as server:
            payload = json.loads(_wire(server, "ALERTS"))
        assert payload["enabled"] is False

    def test_forced_canary_on_served_batch_verifies_clean(self, engine):
        shadow = ShadowCanary(1.0, seed=3)
        shadow.start()
        sources = np.array([0, 1, 2, 3], dtype=np.int64)
        targets = np.array([5, 6, 7, 8], dtype=np.int64)
        with QueryServer(engine, max_batch_size=4) as server:
            server.shadow = shadow
            server.submit(sources, targets).wait(30)
        # The reply future resolves before the batcher reaches the shadow
        # hook; the context exit drains the batcher first.
        shadow.flush()
        stats = shadow.stats()
        shadow.stop()
        assert stats[names.SHADOW_PAIRS_TOTAL] == 4.0
        assert stats[names.SHADOW_MISMATCHES_TOTAL] == 0.0

    def test_injected_wrong_distance_increments_mismatches(
        self, engine, monkeypatch
    ):
        """A kernel serving off-by-one distances is caught by the canary and
        lands in the snapshot as ``shadow_mismatches_total``."""
        original = engine.query_batch

        def off_by_one(sources, targets, *args, **kwargs):
            return original(sources, targets, *args, **kwargs) + 1.0

        monkeypatch.setattr(engine, "query_batch", off_by_one)
        shadow = ShadowCanary(1.0, seed=3)
        shadow.start()
        sources = np.array([0, 1, 2, 3], dtype=np.int64)
        targets = np.array([5, 6, 7, 8], dtype=np.int64)
        with QueryServer(engine, max_batch_size=4) as server:
            server.shadow = shadow
            server.submit(sources, targets).wait(30)
            shadow.flush()
            stats = server.metrics_snapshot()
        shadow.flush()
        mismatches = shadow.stats()[names.SHADOW_MISMATCHES_TOTAL]
        shadow.stop()
        assert mismatches == 4.0
        # The snapshot read while serving may predate verification, but the
        # canary counters are always present once the canary is attached.
        assert names.SHADOW_MISMATCHES_TOTAL in stats

    def test_shadow_mismatch_fails_bench_compare_exact_zero_gate(self):
        """The committed observability baselines carry all-zero mismatch
        samples, so a single divergence must gate ``bench compare``."""
        baseline = bench_result(
            "observability",
            [
                Metric(
                    "shadow_mismatches",
                    0.0,
                    higher_is_better=False,
                    samples=[0.0, 0.0, 0.0],
                )
            ],
        )
        clean = bench_result(
            "observability",
            [Metric("shadow_mismatches", 0.0, higher_is_better=False)],
        )
        poisoned = bench_result(
            "observability",
            [Metric("shadow_mismatches", 1.0, higher_is_better=False)],
        )
        assert not has_regressions(compare_results(baseline, clean))
        comparisons = compare_results(baseline, poisoned)
        assert has_regressions(comparisons)
        (verdict,) = comparisons
        assert verdict.status == "regressed"


class TestAsyncFrontendIntegration:
    def test_slo_breach_lifecycle_on_all_surfaces(self, engine):
        """Same injected breach as the blocking-server test, surfaced through
        the asyncio front end: HTTP /metrics, HTTP /alerts, and the wire verb."""
        script = _SLOBreachScript()

        async def scenario():
            frontend = AsyncQueryFrontend(engine)
            await frontend.start()
            await frontend.start_http()
            frontend.health = script.monitor
            host, port = frontend.http_address
            from tests.test_serving_aio import _http_request

            observed = {}
            assert script.run_healthy() == []

            assert script.run_cliff_to_pending() == ["LatencySLOBurnRate:pending"]
            observed["pending_metrics"] = await _http_request(
                host, port, "GET", "/metrics"
            )
            observed["pending_alerts"] = await _http_request(
                host, port, "GET", "/alerts"
            )
            observed["pending_wire"] = await frontend._handle_line("ALERTS")

            assert script.run_cliff_to_firing() == ["LatencySLOBurnRate:firing"]
            observed["firing_metrics"] = await _http_request(
                host, port, "GET", "/metrics"
            )
            observed["firing_alerts"] = await _http_request(
                host, port, "GET", "/alerts"
            )
            observed["firing_wire"] = await frontend._handle_line("alerts")

            assert script.run_recovery() == ["LatencySLOBurnRate:resolved"]
            observed["resolved_metrics"] = await _http_request(
                host, port, "GET", "/metrics"
            )
            observed["resolved_alerts"] = await _http_request(
                host, port, "GET", "/alerts"
            )
            await frontend.stop()
            return observed

        observed = asyncio.run(scenario())

        status, body = observed["pending_metrics"]
        assert status == 200
        assert (
            'ALERTS{alertname="LatencySLOBurnRate",severity="page"'
            ',alertstate="pending"} 1' in body
        )
        assert "repro_pll_alerts_pending 1" in body
        status, body = observed["pending_alerts"]
        assert status == 200
        payload = json.loads(body)
        assert [a["alertname"] for a in payload["pending"]] == ["LatencySLOBurnRate"]
        wire = json.loads(observed["pending_wire"])
        assert wire["pending"] and not wire["firing"]

        status, body = observed["firing_metrics"]
        assert (
            'ALERTS{alertname="LatencySLOBurnRate",severity="page"'
            ',alertstate="firing"} 1' in body
        )
        assert "repro_pll_alerts_firing 1" in body
        payload = json.loads(observed["firing_alerts"][1])
        assert [a["alertname"] for a in payload["firing"]] == ["LatencySLOBurnRate"]
        wire = json.loads(observed["firing_wire"])
        assert wire["firing"] and not wire["pending"]

        status, body = observed["resolved_metrics"]
        assert "ALERTS{" not in body
        assert "repro_pll_alerts_firing 0" in body
        payload = json.loads(observed["resolved_alerts"][1])
        assert payload["firing"] == [] and payload["pending"] == []
        assert [r["alertname"] for r in payload["recent"]] == ["LatencySLOBurnRate"]

    def test_alerts_endpoints_without_monitor_report_disabled(self, engine):
        async def scenario():
            frontend = AsyncQueryFrontend(engine)
            await frontend.start()
            await frontend.start_http()
            host, port = frontend.http_address
            from tests.test_serving_aio import _http_request

            http_reply = await _http_request(host, port, "GET", "/alerts")
            wire_reply = await frontend._handle_line("ALERTS")
            await frontend.stop()
            return http_reply, wire_reply

        (status, body), wire = asyncio.run(scenario())
        assert status == 200
        assert json.loads(body)["enabled"] is False
        assert json.loads(wire)["enabled"] is False

    def test_shadow_sampling_on_async_batches(self, engine):
        """The async front end's batch path feeds the canary too."""
        shadow = ShadowCanary(1.0, seed=5)
        shadow.start()

        async def scenario():
            frontend = AsyncQueryFrontend(engine)
            await frontend.start()
            frontend.shadow = shadow
            replies = await asyncio.gather(
                *(frontend.submit([v], [v + 5]) for v in range(4))
            )
            await frontend.stop()
            return replies

        replies = asyncio.run(scenario())
        assert len(replies) == 4
        shadow.flush()
        stats = shadow.stats()
        shadow.stop()
        assert stats[names.SHADOW_PAIRS_TOTAL] >= 4.0
        assert stats[names.SHADOW_MISMATCHES_TOTAL] == 0.0

    def test_debug_bundle_includes_alerts_and_environment(self, engine):
        monitor = HealthMonitor(dict, rules=[_slo_rule()], interval_seconds=3600.0)

        async def scenario():
            frontend = AsyncQueryFrontend(engine)
            await frontend.start()
            await frontend.start_http()
            frontend.health = monitor
            host, port = frontend.http_address
            from tests.test_serving_aio import _http_request

            reply = await _http_request(host, port, "GET", "/debug/bundle")
            await frontend.stop()
            return reply

        status, body = asyncio.run(scenario())
        assert status == 200
        bundle = json.loads(body)
        assert set(bundle) >= {
            "alerts",
            "environment",
            "index_health",
            "kernel",
            "metrics",
            "threads",
            "traces",
        }
        assert bundle["alerts"]["enabled"] is True
        assert "alerts_firing" in bundle["metrics"]
