"""Tests for the serving metrics: latency window, percentiles, histograms."""

from __future__ import annotations

import json

import pytest

from repro.serving import (
    Histogram,
    LatencyWindow,
    ServerMetrics,
    index_health_stats,
    render_prometheus_text,
    validate_prometheus_exposition,
)
from repro.serving.cache import CacheStats
from repro.serving.metrics import (
    PROMETHEUS_COUNTERS,
    STAGE_NAMES,
    _prometheus_number,
)


def _strip_histogram_suffix(name: str) -> str:
    """Reduce a histogram sample name to the metric name TYPE announces."""
    base = name.split("{", 1)[0]
    for suffix in ("_bucket", "_sum", "_count"):
        if base.endswith(suffix):
            return base[: -len(suffix)]
    return base


class TestLatencyWindow:
    def test_capacity_must_be_positive(self):
        with pytest.raises(ValueError):
            LatencyWindow(0)

    def test_empty_percentiles_are_zero(self):
        window = LatencyWindow(8)
        assert window.percentiles() == {"p50": 0.0, "p95": 0.0, "p99": 0.0}
        assert len(window) == 0

    def test_ring_overwrites_oldest(self):
        window = LatencyWindow(4)
        for value in (1.0, 2.0, 3.0, 4.0, 5.0, 6.0):
            window.record(value)
        assert len(window) == 4
        assert sorted(window.values()) == [3.0, 4.0, 5.0, 6.0]

    def test_percentiles_in_milliseconds(self):
        window = LatencyWindow(16)
        for value in (0.001, 0.002, 0.003):
            window.record(value)
        points = window.percentiles()
        assert points["p50"] == pytest.approx(2.0)
        assert points["p95"] <= 3.0


class TestServerMetrics:
    def test_observe_and_snapshot(self):
        metrics = ServerMetrics()
        metrics.observe_batch("pair", 10, 0.004, [0.004] * 3)
        metrics.observe_batch("pair", 6, 0.002, [0.002])
        # A retry group in which every request failed books only its errors.
        metrics.observe_batch("pair", 0, 0.003, [], num_errors=2)
        metrics.observe_rejection()
        stats = metrics.snapshot()
        assert stats["num_queries"] == 16
        assert stats["num_batches"] == 2
        assert stats["num_requests"] == 4
        assert stats["num_errors"] == 2
        assert stats["num_rejected"] == 1
        assert stats["average_batch_size"] == 8.0
        assert stats["qps"] > 0.0
        assert stats["latency_p99_ms"] >= stats["latency_p50_ms"] > 0.0
        assert 0.0 <= stats["busy_fraction"] <= 1.0

    def test_request_latencies_feed_percentiles(self):
        metrics = ServerMetrics()
        # Client-observed latencies dominate the batch compute time.
        metrics.observe_batch("pair", 3, 0.001, [0.010, 0.020, 0.030])
        stats = metrics.snapshot()
        assert stats["latency_p50_ms"] == pytest.approx(20.0)
        assert stats["latency_p99_ms"] == pytest.approx(30.0, rel=0.05)
        assert 0.0 <= stats["busy_fraction"] <= 1.0

    def test_snapshot_with_cache_and_version(self):
        metrics = ServerMetrics()
        cache_stats = CacheStats(hits=3, misses=1)
        stats = metrics.snapshot(
            cache_stats=cache_stats, snapshot_version=4, queue_depth=2
        )
        assert stats["cache_hit_rate"] == 0.75
        assert stats["snapshot_version"] == 4
        assert stats["queue_depth"] == 2

    def test_render_outputs(self):
        metrics = ServerMetrics()
        metrics.observe_batch("pair", 1, 0.001, [0.001])
        text = metrics.render()
        assert "qps" in text and "latency_p50_ms" in text
        parsed = json.loads(metrics.render_json())
        assert parsed["num_queries"] == 1



class TestPrometheusRendering:
    def test_number_formatting(self):
        assert _prometheus_number(3) == "3"
        assert _prometheus_number(2.0) == "2"
        assert _prometheus_number(0.5) == "0.5"
        assert _prometheus_number(float("inf")) == "+Inf"
        assert _prometheus_number(float("-inf")) == "-Inf"
        assert _prometheus_number(float("nan")) == "NaN"

    def test_exposition_shape_and_types(self):
        metrics = ServerMetrics()
        metrics.observe_batch("pair", 5, 0.002, [0.002, 0.002])
        metrics.observe_rejection()
        body = metrics.render_prometheus(
            cache_stats=CacheStats(hits=3, misses=1), snapshot_version=7
        )
        assert body.endswith("\n")
        lines = body.splitlines()
        samples = {}
        types = {}
        for line in lines:
            if line.startswith("# TYPE "):
                _, _, name, kind = line.split(" ", 3)
                types[name] = kind
            elif line.startswith("# HELP "):
                continue
            else:
                name, _, value = line.partition(" ")
                samples[name] = float(value)
        # Every sample is announced with HELP/TYPE and parses as a float;
        # histogram samples (_bucket/_sum/_count) are announced under the
        # base metric name, per the exposition format.
        for name in samples:
            base = name.split("{", 1)[0]
            assert base in types or _strip_histogram_suffix(name) in types
        assert samples["repro_pll_num_queries"] == 5.0
        assert samples["repro_pll_num_rejected"] == 1.0
        assert samples["repro_pll_cache_hit_rate"] == 0.75
        assert samples["repro_pll_snapshot_version"] == 7.0
        assert types["repro_pll_num_queries"] == "counter"
        assert types["repro_pll_qps"] == "gauge"
        assert types["repro_pll_latency_seconds"] == "histogram"

    def test_non_numeric_values_are_skipped(self):
        body = render_prometheus_text({"name": "server-1", "num_queries": 2})
        assert "server-1" not in body
        assert "repro_pll_num_queries 2" in body

    def test_counters_declared_counter(self):
        for key in ("num_queries", "num_errors"):
            assert key in PROMETHEUS_COUNTERS

    def test_full_body_passes_exposition_grammar(self):
        metrics = ServerMetrics()
        metrics.observe_batch(
            "pair",
            8,
            0.002,
            [0.001, 0.003, 0.02, 1.7],
            stages={
                "queue": [0.0001, 0.0002],
                "kernel": [0.002],
                "cache_probe": [0.00005],
            },
        )
        body = metrics.render_prometheus(
            cache_stats=CacheStats(hits=1, misses=3), snapshot_version=2
        )
        samples = validate_prometheus_exposition(body)
        assert samples["repro_pll_num_queries"] == 8.0
        assert samples["repro_pll_latency_seconds_count"] == 4.0


class TestHistogram:
    def test_bucket_validation(self):
        with pytest.raises(ValueError):
            Histogram([])
        with pytest.raises(ValueError):
            Histogram([0.0, 1.0])
        with pytest.raises(ValueError):
            Histogram([-0.5, 1.0])

    def test_bounds_are_sorted(self):
        histogram = Histogram([1.0, 0.1, 0.5])
        histogram.observe(0.3)
        snap = histogram.snapshot()
        assert [b for b, _ in snap["buckets"]] == [0.1, 0.5, 1.0]
        assert [c for _, c in snap["buckets"]] == [0, 1, 1]

    def test_cumulative_buckets_monotone_and_inf_equals_count(self):
        histogram = Histogram()
        values = [0.00005, 0.0004, 0.0004, 0.007, 0.3, 99.0]
        histogram.observe_many(values)
        snap = histogram.snapshot()
        cumulative = [c for _, c in snap["buckets"]]
        assert cumulative == sorted(cumulative)
        # 99.0 overflows every finite bucket: the last finite cumulative is
        # one short of count, and the implicit +Inf bucket equals count.
        assert cumulative[-1] == len(values) - 1
        assert snap["count"] == len(values)
        assert snap["sum"] == pytest.approx(sum(values))

    def test_boundary_value_lands_in_its_bucket(self):
        histogram = Histogram([0.001, 0.01])
        histogram.observe(0.001)  # le="0.001" is inclusive
        snap = histogram.snapshot()
        assert snap["buckets"][0][1] == 1

    def test_exposition_bucket_series(self):
        metrics = ServerMetrics(histogram_buckets=(0.001, 0.01, 0.1))
        metrics.observe_batch("pair", 3, 0.001, [0.0005, 0.05, 2.0])
        body = metrics.render_prometheus()
        assert 'repro_pll_latency_seconds_bucket{le="0.001"} 1' in body
        assert 'repro_pll_latency_seconds_bucket{le="0.1"} 2' in body
        assert 'repro_pll_latency_seconds_bucket{le="+Inf"} 3' in body
        assert "repro_pll_latency_seconds_count 3" in body
        assert "repro_pll_latency_seconds_sum 2.0505" in body

    def test_stage_histograms_present_and_fed(self):
        metrics = ServerMetrics()
        metrics.observe_batch(
            "pair", 1, 0.001, [0.001], stages={stage: [0.001] for stage in STAGE_NAMES}
        )
        # Unknown stages are silently ignored.
        metrics.observe_batch("pair", 1, 0.001, [0.001], stages={"unknown_stage": [1.0]})
        histograms = metrics.snapshot()["histograms"]
        for stage in STAGE_NAMES:
            assert histograms[f"stage_{stage}_seconds"]["count"] == 1
        body = metrics.render_prometheus()
        for stage in STAGE_NAMES:
            assert f"# TYPE repro_pll_stage_{stage}_seconds histogram" in body

    def test_histograms_disabled(self):
        metrics = ServerMetrics(histogram_buckets=None)
        assert not metrics.has_histograms
        metrics.observe_batch("pair", 1, 0.001, [0.001], stages={"queue": [0.001]})
        assert "histograms" not in metrics.snapshot()
        assert "_bucket" not in metrics.render_prometheus()


class TestRenderFormatting:
    def test_num_queries_property(self):
        metrics = ServerMetrics()
        assert metrics.num_queries == 0
        metrics.observe_batch("pair", 7, 0.001, [0.001, 0.001])
        assert metrics.num_queries == 7

    def test_render_histograms_summarised(self):
        metrics = ServerMetrics()
        metrics.observe_batch("pair", 1, 0.001, [0.001])
        text = metrics.render()
        assert "  histograms" in text
        assert "latency_seconds" in text
        assert "count=1" in text
        assert "buckets" not in text  # summary line, not a bucket dump


class TestIndexHealthStats:
    def test_kernel_layout_surfaces_in_metrics(self, small_social_graph):
        from repro.core.index import PrunedLandmarkLabeling
        from repro.serving import BatchQueryEngine

        index = PrunedLandmarkLabeling(num_bit_parallel_roots=3).build(
            small_social_graph
        )
        engine = BatchQueryEngine(index)
        stats = index_health_stats(engine)
        assert stats["index_label_entries"] == index.label_set.total_entries()
        assert stats["index_bit_parallel_roots"] == 3
        assert stats["index_num_vertices"] == small_social_graph.num_vertices
        assert stats["kernel_name"] == "narrow"
        assert stats["kernel_narrow"] == 1
        assert "kernel_fallback" not in stats and "kernel_requested" not in stats
        text = render_prometheus_text(stats)
        assert 'repro_pll_kernel_info{kernel="narrow"} 1' in text
        assert "repro_pll_kernel_narrow 1" in text


class TestProcessResourceGauges:
    def test_snapshot_includes_resource_gauges(self):
        stats = ServerMetrics().snapshot()
        assert stats["process_rss_bytes"] > 0
        assert stats["process_open_fds"] > 0
        assert stats["gc_collections_total"] >= 0

    def test_resource_gauges_render_and_validate(self):
        body = ServerMetrics().render_prometheus()
        samples = validate_prometheus_exposition(body)
        assert samples["repro_pll_process_rss_bytes"] > 0
        assert samples["repro_pll_process_open_fds"] > 0

    def test_gc_monitor_adds_pause_series(self):
        import gc

        from repro.obs import resources

        # The hook is process-wide: leave it as found, or tests that count
        # gc.callbacks (serve --gc-monitor) fail whenever they run after us.
        was_enabled = resources._MONITOR_ENABLED
        resources.enable_gc_monitor()
        try:
            gc.collect()
            stats = ServerMetrics().snapshot()
        finally:
            if not was_enabled:
                resources.disable_gc_monitor()
        assert stats["gc_pauses_total"] >= 1
        assert stats["gc_pause_seconds_total"] >= 0.0

    def test_gc_callback_cannot_deadlock_against_lock_holders(self):
        """Regression: a collection fired while the monitor lock is held.

        Allocations inside install()/stats() can trigger a GC whose callback
        runs synchronously on the same thread; the callback must therefore
        never acquire that lock, or the thread deadlocks against itself.
        Simulated here by collecting with the lock explicitly held.
        """
        import gc

        from repro.obs.resources import GcPauseMonitor

        monitor = GcPauseMonitor()
        monitor.install()
        try:
            before = monitor.stats()["gc_pauses_total"]
            with monitor._lock:
                gc.collect()  # deadlocks here if the callback takes the lock
            assert monitor.stats()["gc_pauses_total"] >= before + 1
        finally:
            monitor.uninstall()


class TestVerbAndKernelOpCounters:
    def test_observe_verb_accumulates_in_snapshot(self):
        metrics = ServerMetrics()
        metrics.observe_batch("pair", 4, 0.001, [0.001])
        metrics.observe_batch("one_to_many", 3, 0.001, [0.001])
        metrics.observe_batch("pair", 1, 0.001, [0.001])
        assert metrics.snapshot()["verbs"] == {"pair": 5, "one_to_many": 3}

    def test_counters_absent_until_first_observation(self):
        assert "verbs" not in ServerMetrics().snapshot()

    def test_labelled_exposition_series(self):
        metrics = ServerMetrics()
        metrics.observe_batch("one_to_many", 3, 0.001, [0.001])
        metrics.observe_batch("pair", 7, 0.001, [0.001])
        body = metrics.render_prometheus()
        validate_prometheus_exposition(body)
        assert 'repro_pll_verb_queries_total{verb="one_to_many"} 3' in body
        assert 'repro_pll_verb_queries_total{verb="pair"} 7' in body
