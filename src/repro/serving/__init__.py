"""Query-serving subsystem: batched engine, hot-pair cache, snapshot hot swap.

Everything under :mod:`repro.serving` is aimed at *traffic*, not
reproduction: turning a built pruned-landmark-labeling index into a
long-lived service that answers heavy query streams fast and keeps serving
while the index is updated underneath it.

* :mod:`~repro.serving.engine` — :class:`BatchQueryEngine`, the vectorised
  many-pairs-per-call front end over a built index.
* :mod:`~repro.serving.cache` — :class:`LRUCache`, the bounded hot-pair
  cache with hit/miss/eviction counters.
* :mod:`~repro.serving.snapshot` — :class:`SnapshotManager`, lock-free
  reader snapshots with atomic hot swap of updated or reloaded indexes.
* :mod:`~repro.serving.aio` — :class:`AsyncQueryFrontend`, the one request
  pipeline (admission control, coalescing, cache, tracing, mutation
  dispatch, metrics) and the line-protocol handler, multiplexing thousands
  of TCP connections on one event loop, with the HTTP admin plane
  (Prometheus ``/metrics``, ``/healthz``, ``/publish``, ``/alerts``) plus
  the debug surface (``/traces``, ``/debug/threads``, ``/debug/profile``,
  ``/debug/bundle``) and graceful drain.
* :mod:`~repro.serving.server` — :class:`QueryServer`, the blocking facade
  running a front end on a private event-loop thread, plus the stdio
  session (:func:`serve_stdio`), ``--mutations`` replay and the
  cache-warming replay (:func:`warm_cache`).
* :mod:`~repro.serving.alerts` — :class:`HealthMonitor`, the background
  health engine evaluating the default SLO/burn-rate alert rules against
  metrics snapshots, and :class:`ShadowCanary`, the sampled shadow
  correctness recomputation behind ``serve --shadow-sample``.
* :mod:`~repro.serving.metrics` — :class:`ServerMetrics`: QPS, P50/P95/P99
  latency, true fixed-bucket latency/stage :class:`Histogram`\\ s, cache hit
  rate, index-health gauges and the Prometheus text-exposition renderer.
* :mod:`~repro.serving.tracing` — :class:`TraceRecorder` /
  :class:`StructuredLogger`: per-request trace ids and spans, the
  recent/slow trace ring buffers, the slow-query log and the JSON event
  logger behind ``serve --slow-ms`` / ``--log-json``.
"""

from repro.serving.aio import AsyncQueryFrontend
from repro.serving.alerts import (
    HealthMonitor,
    ShadowCanary,
    alerts_wire_reply,
    default_alert_rules,
)
from repro.serving.cache import CacheStats, LRUCache, cached_query_batch
from repro.serving.engine import BatchQueryEngine
from repro.serving.metrics import (
    Histogram,
    LatencyWindow,
    ServerMetrics,
    index_health_stats,
    render_prometheus_text,
    validate_prometheus_exposition,
)
from repro.serving.protocol import MAX_VERTEX_ID, parse_mutation, parse_pair
from repro.serving.server import (
    QueryRequest,
    QueryServer,
    read_pairs_file,
    replay_mutations,
    serve_stdio,
    warm_cache,
)
from repro.serving.snapshot import IndexSnapshot, SnapshotManager
from repro.serving.tracing import (
    NullTraceRecorder,
    Span,
    StructuredLogger,
    Trace,
    TraceRecorder,
    make_trace_id,
)

__all__ = [
    "AsyncQueryFrontend",
    "BatchQueryEngine",
    "HealthMonitor",
    "ShadowCanary",
    "alerts_wire_reply",
    "default_alert_rules",
    "LRUCache",
    "CacheStats",
    "cached_query_batch",
    "IndexSnapshot",
    "SnapshotManager",
    "QueryServer",
    "QueryRequest",
    "read_pairs_file",
    "replay_mutations",
    "serve_stdio",
    "warm_cache",
    "ServerMetrics",
    "LatencyWindow",
    "Histogram",
    "index_health_stats",
    "render_prometheus_text",
    "validate_prometheus_exposition",
    "TraceRecorder",
    "NullTraceRecorder",
    "Trace",
    "Span",
    "StructuredLogger",
    "make_trace_id",
    "parse_pair",
    "parse_mutation",
    "MAX_VERTEX_ID",
]
