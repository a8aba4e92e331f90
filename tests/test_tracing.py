"""Tests for request tracing: spans, trace rings, slow log, JSON logger."""

from __future__ import annotations

import io
import json

import pytest

from repro.serving import (
    NullTraceRecorder,
    Span,
    StructuredLogger,
    Trace,
    TraceRecorder,
    make_trace_id,
)


class TestTraceIds:
    def test_ids_are_unique_and_hex(self):
        ids = {make_trace_id() for _ in range(1000)}
        assert len(ids) == 1000
        for trace_id in ids:
            assert len(trace_id) == 16
            int(trace_id, 16)  # parses as hex


class TestSpan:
    def test_as_dict_merges_attrs(self):
        span = Span("kernel", 0.002, pairs=64, worker=1234)
        record = span.as_dict()
        assert record["name"] == "kernel"
        assert record["ms"] == pytest.approx(2.0)
        assert record["pairs"] == 64
        assert record["worker"] == 1234


class TestTrace:
    def test_add_span_clamps_negative(self):
        trace = Trace("abc", num_pairs=2)
        trace.add_span("queue", -0.001)
        assert trace.spans[0].seconds == 0.0

    def test_extend_shares_span_objects(self):
        shared = [Span("kernel", 0.001)]
        a, b = Trace("a", 1), Trace("b", 1)
        a.extend(shared)
        b.extend(shared)
        assert a.spans[0] is b.spans[0]

    def test_as_dict_shape(self):
        trace = Trace("abc", num_pairs=3)
        trace.add_span("queue", 0.0001)
        trace.total_seconds = 0.005
        record = trace.as_dict()
        assert record["trace_id"] == "abc"
        assert record["num_pairs"] == 3
        assert record["total_ms"] == pytest.approx(5.0)
        assert record["status"] == "ok"
        assert [s["name"] for s in record["spans"]] == ["queue"]


class TestTraceRecorder:
    def test_capacity_must_be_positive(self):
        with pytest.raises(ValueError):
            TraceRecorder(0)

    def test_recent_ring_bounded_newest_first(self):
        recorder = TraceRecorder(capacity=3)
        for i in range(5):
            trace = recorder.start(num_pairs=i)
            recorder.record(trace, 0.001)
        assert recorder.num_recorded == 5
        recent = recorder.recent()
        assert len(recent) == 3  # ring evicted the two oldest
        assert [t["num_pairs"] for t in recent] == [4, 3, 2]  # newest first
        assert recorder.recent(limit=1)[0]["num_pairs"] == 4

    def test_slow_threshold_routes_to_slow_ring_and_log(self):
        stream = io.StringIO()
        logger = StructuredLogger(stream, component="slow-query")
        recorder = TraceRecorder(slow_threshold_ms=10.0, logger=logger)
        fast = recorder.start(1)
        recorder.record(fast, 0.005)
        slow = recorder.start(2)
        recorder.record(slow, 0.050)
        snap = recorder.snapshot()
        assert snap["num_recorded"] == 2
        assert snap["num_slow"] == 1
        assert [t["num_pairs"] for t in snap["slow"]] == [2]
        events = [json.loads(line) for line in stream.getvalue().splitlines()]
        assert len(events) == 1
        assert events[0]["event"] == "slow_query"
        assert events[0]["component"] == "slow-query"
        assert events[0]["trace_id"] == slow.trace_id
        assert events[0]["total_ms"] == pytest.approx(50.0)

    def test_threshold_is_inclusive(self):
        recorder = TraceRecorder(slow_threshold_ms=10.0)
        recorder.record(recorder.start(1), 0.010)
        assert recorder.snapshot()["num_slow"] == 1

    def test_no_threshold_means_no_slow_traces(self):
        recorder = TraceRecorder()
        recorder.record(recorder.start(1), 100.0)
        snap = recorder.snapshot()
        assert snap["slow_threshold_ms"] is None
        assert snap["num_slow"] == 0 and snap["slow"] == []

    def test_record_status(self):
        recorder = TraceRecorder()
        recorder.record(recorder.start(1), 0.001, status="error")
        assert recorder.recent()[0]["status"] == "error"

    def test_record_none_is_noop(self):
        recorder = TraceRecorder()
        recorder.record(None, 0.001)
        assert recorder.num_recorded == 0

    def test_snapshot_is_json_serialisable(self):
        recorder = TraceRecorder()
        trace = recorder.start(2)
        trace.add_span("kernel", 0.001, pairs=2)
        recorder.record(trace, 0.002)
        payload = json.loads(json.dumps(recorder.snapshot()))
        assert payload["recent"][0]["spans"][0]["name"] == "kernel"


class TestNullTraceRecorder:
    def test_disabled_and_inert(self):
        recorder = NullTraceRecorder()
        assert recorder.enabled is False
        assert TraceRecorder.enabled is True
        assert recorder.start(5) is None
        recorder.record(recorder.start(5), 1.0)
        assert recorder.num_recorded == 0
        assert recorder.snapshot()["recent"] == []


class TestStructuredLogger:
    def test_one_json_object_per_line(self):
        stream = io.StringIO()
        logger = StructuredLogger(stream, component="test")
        logger.event("first", value=1)
        logger.event("second", name="x")
        lines = stream.getvalue().splitlines()
        assert len(lines) == 2
        first, second = (json.loads(line) for line in lines)
        assert first["event"] == "first" and first["value"] == 1
        assert first["component"] == "test"
        assert "ts" in first
        assert second["name"] == "x"

    def test_child_shares_stream_with_new_component(self):
        stream = io.StringIO()
        parent = StructuredLogger(stream, component="cli")
        child = parent.child("server")
        child.event("snapshot_publish")
        record = json.loads(stream.getvalue())
        assert record["component"] == "server"

    def test_unserialisable_values_degrade_to_repr(self):
        stream = io.StringIO()
        logger = StructuredLogger(stream)
        logger.event("odd", payload=object())
        record = json.loads(stream.getvalue())
        assert "object object at" in record["payload"]

    def test_closed_stream_never_raises(self):
        stream = io.StringIO()
        logger = StructuredLogger(stream)
        stream.close()
        logger.event("after_close")  # must not raise
