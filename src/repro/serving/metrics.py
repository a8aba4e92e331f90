"""Serving metrics: QPS, latency histograms and percentiles, cache hit rate.

Production query services are judged by throughput and *tail* latency — the
P99 a heavy user actually experiences — not by the mean.  This module keeps a
bounded ring buffer of recent request latencies and derives the standard
serving dashboard from it: queries per second, P50/P95/P99, batch shape and
cache effectiveness.  On top of the point-in-time percentile gauges it keeps
true fixed-bucket :class:`Histogram`\\ s — one for end-to-end latency, one per
pipeline stage (queue wait, coalescing window, kernel, cache probe) — because
gauges sampled at scrape time cannot be aggregated across instances or
windows, while histogram ``_bucket``/``_sum``/``_count`` series can
(``histogram_quantile`` in PromQL).  Everything is stdlib + numpy and cheap
enough to update on every batch.

Three renderings of the same snapshot cover every consumer: :meth:`ServerMetrics.render`
(human-readable), :meth:`ServerMetrics.render_json` (the ``stats json`` wire
reply) and :func:`render_prometheus_text` (the text exposition format served
on the async front end's ``GET /metrics`` admin endpoint, scrapeable by
Prometheus).
"""

from __future__ import annotations

import json
import math
import re
import threading
import time
from bisect import bisect_left
from typing import Dict, List, Mapping, Optional, Sequence

import numpy as np

from repro.obs import names
from repro.obs.resources import process_resource_stats
from repro.serving.cache import CacheStats

__all__ = [
    "Histogram",
    "LatencyWindow",
    "ServerMetrics",
    "index_health_stats",
    "render_prometheus_text",
    "validate_prometheus_exposition",
]

#: Percentiles reported by default (the usual serving dashboard trio).
DEFAULT_PERCENTILES = (50.0, 95.0, 99.0)

#: Default latency histogram buckets in **seconds**: 100 µs to 2.5 s, roughly
#: logarithmic — wide enough to cover a cache hit and a wedged engine call alike.
DEFAULT_LATENCY_BUCKETS = (
    0.0001,
    0.00025,
    0.0005,
    0.001,
    0.0025,
    0.005,
    0.01,
    0.025,
    0.05,
    0.1,
    0.25,
    0.5,
    1.0,
    2.5,
)

#: Stage names tracked per request/batch; each becomes a
#: ``<prefix>_stage_<name>_seconds`` histogram on ``/metrics``.
STAGE_NAMES = ("queue", "batch", "kernel", "cache_probe")

#: Monotone snapshot keys → Prometheus ``counter`` type (everything else is a
#: ``gauge``).  Lives in the shared name registry (``repro.obs.names``) since
#: PR 10; re-exported here for existing importers.
PROMETHEUS_COUNTERS = names.PROMETHEUS_COUNTERS

#: Help strings for the best-known snapshot keys; anything else gets a
#: generated fallback so the exposition stays self-describing.  Moved to the
#: shared name registry alongside the names themselves.
_PROMETHEUS_HELP = names.METRIC_HELP


class Histogram:
    """Fixed-bucket histogram matching Prometheus semantics.

    Buckets are upper bounds in seconds; an observation lands in the first
    bucket whose bound is >= the value (plus the implicit ``+Inf`` bucket).
    Counts are kept per bucket (non-cumulative) so :meth:`observe` is a bisect
    and an increment; the cumulative ``_bucket`` series is derived at
    :meth:`snapshot` time.  Not thread safe on its own — callers
    (:class:`ServerMetrics`) hold their lock around it, the same contract as
    :class:`LatencyWindow`.
    """

    __slots__ = ("_bounds", "_counts", "_sum", "_count")

    def __init__(self, buckets: Sequence[float] = DEFAULT_LATENCY_BUCKETS) -> None:
        bounds = tuple(sorted(float(b) for b in buckets))
        if not bounds:
            raise ValueError("histogram needs at least one bucket bound")
        if any(b <= 0 for b in bounds):
            raise ValueError("histogram bucket bounds must be positive")
        self._bounds = bounds
        # One slot per finite bucket plus the +Inf overflow slot.
        self._counts = [0] * (len(bounds) + 1)
        self._sum = 0.0
        self._count = 0

    @property
    def count(self) -> int:
        """Total observations."""
        return self._count

    @property
    def sum(self) -> float:
        """Sum of all observed values (seconds)."""
        return self._sum

    def observe(self, value: float) -> None:
        """Record one observation (seconds)."""
        self._counts[bisect_left(self._bounds, value)] += 1
        self._sum += value
        self._count += 1

    def observe_many(self, values: Sequence[float]) -> None:
        """Record several observations under one call."""
        for value in values:
            self.observe(value)

    def snapshot(self) -> Dict[str, object]:
        """Cumulative-bucket view: ``{"buckets": [[le, cum], ...], "sum", "count"}``.

        ``buckets`` covers the finite bounds only; the ``+Inf`` bucket is by
        definition equal to ``count`` and is emitted by the renderer.
        """
        cumulative: List[List[float]] = []
        running = 0
        for bound, bucket_count in zip(self._bounds, self._counts):
            running += bucket_count
            cumulative.append([bound, running])
        return {"buckets": cumulative, "sum": self._sum, "count": self._count}


def _prometheus_number(value: float) -> str:
    """Render one sample value in the exposition grammar (incl. +Inf/NaN)."""
    number = float(value)
    if math.isinf(number):
        return "+Inf" if number > 0 else "-Inf"
    if math.isnan(number):
        return "NaN"
    if number == int(number) and abs(number) < 2**53:
        return str(int(number))
    return repr(number)


def render_prometheus_text(
    stats: Mapping[str, object], *, prefix: str = "repro_pll"
) -> str:
    """Render one :meth:`ServerMetrics.snapshot` dictionary as Prometheus text.

    Produces the `text exposition format
    <https://prometheus.io/docs/instrumenting/exposition_formats/>`_ (version
    0.0.4): ``# HELP`` / ``# TYPE`` comment pairs followed by one sample per
    metric, all names prefixed with ``prefix``.  The nested ``histograms`` key
    becomes true histogram exposition (``_bucket`` series per ``le`` bound
    plus ``_sum``/``_count``); a ``kernel_name`` string becomes an
    info-style gauge (``<prefix>_kernel_info{kernel="..."} 1``); an
    ``alerts`` list from the health engine becomes the conventional
    *unprefixed* ``ALERTS{alertname=...,severity=...,alertstate=...} 1``
    series Prometheus itself exports for active alerts.  Other non-numeric
    values are skipped.
    """
    lines = []

    def emit(name: str, value: float, kind: str, help_text: str, labels: str = "") -> None:
        lines.append(f"# HELP {name} {help_text}")
        lines.append(f"# TYPE {name} {kind}")
        lines.append(f"{name}{labels} {_prometheus_number(value)}")

    histograms = stats.get("histograms")
    verbs = stats.get("verbs")
    kernel_ops = stats.get("kernel_ops")
    alerts = stats.get("alerts")
    for key in sorted(stats):
        if key in ("histograms", "verbs", "kernel_ops", "alerts"):
            continue
        value = stats[key]
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            continue
        name = f"{prefix}_{key}"
        kind = "counter" if key in PROMETHEUS_COUNTERS else "gauge"
        help_text = _PROMETHEUS_HELP.get(key, f"Serving statistic {key}.")
        emit(name, value, kind, help_text)
    if isinstance(alerts, Sequence) and alerts:
        name = names.ALERTS_SERIES
        lines.append(f"# HELP {name} Active alert instances from the serving health engine.")
        lines.append(f"# TYPE {name} gauge")
        for alert in sorted(
            (entry for entry in alerts if isinstance(entry, Mapping)),
            key=lambda entry: str(entry.get("alertname", "")),
        ):
            alertname = alert.get("alertname", "")
            severity = alert.get("severity", "")
            alertstate = alert.get("alertstate", "")
            lines.append(
                f'{name}{{alertname="{alertname}",severity="{severity}"'
                f',alertstate="{alertstate}"}} 1'
            )
    kernel_name = stats.get("kernel_name")
    if isinstance(kernel_name, str) and kernel_name:
        emit(
            f"{prefix}_{names.KERNEL_INFO}",
            1,
            "gauge",
            "Key layout of the batch kernel serving queries.",
            labels=f'{{kernel="{kernel_name}"}}',
        )
    if isinstance(verbs, Mapping) and verbs:
        name = f"{prefix}_{names.VERB_QUERIES_TOTAL}"
        lines.append(f"# HELP {name} Query pairs answered, broken down by wire verb.")
        lines.append(f"# TYPE {name} counter")
        for verb in sorted(verbs):
            lines.append(
                f'{name}{{verb="{verb}"}} {_prometheus_number(verbs[verb])}'
            )
    if isinstance(kernel_ops, Mapping) and kernel_ops:
        name = f"{prefix}_{names.KERNEL_OP_QUERIES_TOTAL}"
        lines.append(
            f"# HELP {name} Query pairs evaluated, broken down by kernel backend and operation."
        )
        lines.append(f"# TYPE {name} counter")
        for kernel, ops in sorted(kernel_ops.items()):
            if not isinstance(ops, Mapping):
                continue
            for op in sorted(ops):
                lines.append(
                    f'{name}{{kernel="{kernel}",op="{op}"}} '
                    f"{_prometheus_number(ops[op])}"
                )
    if isinstance(histograms, Mapping):
        for hist_key in sorted(histograms):
            hist = histograms[hist_key]
            if not isinstance(hist, Mapping):
                continue
            name = f"{prefix}_{hist_key}"
            help_text = _PROMETHEUS_HELP.get(hist_key, f"Latency histogram {hist_key}.")
            lines.append(f"# HELP {name} {help_text}")
            lines.append(f"# TYPE {name} histogram")
            for bound, cumulative in hist.get("buckets", ()):
                lines.append(
                    f'{name}_bucket{{le="{_prometheus_number(bound)}"}} '
                    f"{_prometheus_number(cumulative)}"
                )
            count = hist.get("count", 0)
            lines.append(f'{name}_bucket{{le="+Inf"}} {_prometheus_number(count)}')
            lines.append(f"{name}_sum {_prometheus_number(hist.get('sum', 0.0))}")
            lines.append(f"{name}_count {_prometheus_number(count)}")
    return "\n".join(lines) + "\n"


#: One exposition sample line: ``name{labels} value`` with a Go-style number.
_SAMPLE_RE = re.compile(
    r"^[a-zA-Z_:][a-zA-Z0-9_:]*(\{[^{}]*\})? "
    r"([-+]?[0-9]*\.?[0-9]+([eE][-+]?[0-9]+)?|[-+]?Inf|NaN)$"
)


def validate_prometheus_exposition(body: str) -> Dict[str, float]:
    """Parse a Prometheus text-exposition body, asserting it is well formed.

    Every line must be a ``# HELP`` / ``# TYPE`` comment or a sample matching
    the exposition grammar.  Returns the label-free samples as a dict.

    Promoted here from ``benchmarks/bench_async.py`` so the benchmark, the
    metrics tests and ``repro-pll bench scrape`` all validate the exposition
    with the same grammar.
    """
    samples: Dict[str, float] = {}
    if not body.endswith("\n"):
        raise AssertionError("exposition must end with a newline")
    for line in body.splitlines():
        if not line:
            continue
        if line.startswith("#"):
            if not (line.startswith("# HELP ") or line.startswith("# TYPE ")):
                raise AssertionError(f"unexpected comment line: {line!r}")
            continue
        if not _SAMPLE_RE.match(line):
            raise AssertionError(f"invalid exposition sample: {line!r}")
        name, _, value = line.partition(" ")
        if "{" not in name:
            samples[name] = float(value)
    if not samples:
        raise AssertionError("exposition contained no samples")
    return samples


class LatencyWindow:
    """Fixed-capacity ring buffer of recent latency observations (seconds)."""

    def __init__(self, capacity: int = 8192) -> None:
        if capacity <= 0:
            raise ValueError("latency window capacity must be positive")
        self._buffer = np.zeros(capacity, dtype=np.float64)
        self._next = 0
        self._count = 0

    def __len__(self) -> int:
        return min(self._count, self._buffer.shape[0])

    def record(self, seconds: float) -> None:
        """Append one observation, overwriting the oldest when full."""
        self._buffer[self._next] = seconds
        self._next = (self._next + 1) % self._buffer.shape[0]
        self._count += 1

    def values(self) -> np.ndarray:
        """The retained observations (unordered copy)."""
        if self._count >= self._buffer.shape[0]:
            return self._buffer.copy()
        return self._buffer[: self._count].copy()

    def percentiles(
        self, qs: Sequence[float] = DEFAULT_PERCENTILES
    ) -> Dict[str, float]:
        """Latency percentiles in **milliseconds**, keyed ``"p50"``/``"p95"``/...

        Returns zeros when nothing has been recorded yet.
        """
        values = self.values()
        if values.shape[0] == 0:
            return {f"p{q:g}": 0.0 for q in qs}
        points = np.percentile(values, qs) * 1000.0
        return {f"p{q:g}": float(p) for q, p in zip(qs, points)}


class ServerMetrics:
    """Aggregated serving statistics, safe to update and read across threads.

    Lock discipline (checked by reprolint RL001) — all mutable state belongs
    to ``_lock``, including the two containers only ever touched through
    method calls, which the checker cannot infer from writes:

        _latencies: guarded-by _lock
        _verbs: guarded-by _lock
        _kernel_ops: guarded-by _lock

    ``_histograms`` is deliberately *not* guarded: the dict is fully built in
    ``__init__`` and never mutated afterwards, so the hot-path reads
    (:attr:`has_histograms`, the :meth:`observe_stages` early-out) are safe
    without the lock; only the ``Histogram`` objects inside it mutate, under
    ``_lock``.

    Parameters
    ----------
    window:
        Capacity of the recent-latency ring buffer behind the percentile
        gauges.
    histogram_buckets:
        Bucket bounds (seconds) for the end-to-end and per-stage latency
        histograms; ``None`` disables histograms entirely (the no-op
        configuration the overhead benchmark measures against).
    """

    def __init__(
        self,
        *,
        window: int = 8192,
        histogram_buckets: Optional[Sequence[float]] = DEFAULT_LATENCY_BUCKETS,
    ) -> None:
        self._lock = threading.Lock()
        self._latencies = LatencyWindow(window)
        self._started = time.perf_counter()
        self._num_requests = 0
        self._num_batches = 0
        self._num_queries = 0
        self._busy_seconds = 0.0
        self._num_rejected = 0
        self._num_errors = 0
        self._histograms: Dict[str, Histogram] = {}
        if histogram_buckets is not None:
            self._histograms[names.LATENCY_SECONDS] = Histogram(histogram_buckets)
            for stage in STAGE_NAMES:
                self._histograms[f"stage_{stage}_seconds"] = Histogram(histogram_buckets)
        # Query pairs answered per wire verb ("pair", "one_to_many", ...).
        self._verbs: Dict[str, int] = {}
        # Query pairs evaluated per kernel backend and operation, keyed
        # kernel name -> op name -> pairs.
        self._kernel_ops: Dict[str, Dict[str, int]] = {}

    @property
    def has_histograms(self) -> bool:
        """Whether latency histograms are being collected (hot-path guard)."""
        return bool(self._histograms)

    # ------------------------------------------------------------------ #
    # Recording
    # ------------------------------------------------------------------ #

    def observe_batch(
        self,
        num_queries: int,
        num_requests: int,
        seconds: float,
        *,
        request_latencies: Optional[Sequence[float]] = None,
    ) -> None:
        """Record one processed batch.

        ``seconds`` is the engine's evaluation time (feeds ``busy_fraction``).
        ``request_latencies`` are the *client-observed* per-request latencies
        — submission to completion, including queue wait and the coalescing
        window — and are what the reported percentiles describe.  When absent
        (e.g. direct engine benchmarking), the batch time itself is recorded.
        """
        with self._lock:
            self._num_batches += 1
            self._num_queries += num_queries
            self._num_requests += num_requests
            self._busy_seconds += seconds
            latency_histogram = self._histograms.get(names.LATENCY_SECONDS)
            if request_latencies:
                for latency in request_latencies:
                    self._latencies.record(latency)
                    if latency_histogram is not None:
                        latency_histogram.observe(latency)
            else:
                self._latencies.record(seconds)
                if latency_histogram is not None:
                    latency_histogram.observe(seconds)

    def observe_stages(self, stage_seconds: Mapping[str, Sequence[float]]) -> None:
        """Record per-stage durations into the stage histograms.

        ``stage_seconds`` maps stage names (see :data:`STAGE_NAMES`) to the
        durations observed for one batch — per-request values for the queue
        and coalescing stages, one per-batch value for the kernel and cache
        probe.  One lock acquisition covers the whole batch; unknown stages
        are ignored so callers need no histogram-configuration knowledge.
        No-op when histograms are disabled.
        """
        if not self._histograms:
            return
        with self._lock:
            for stage, values in stage_seconds.items():
                histogram = self._histograms.get(f"stage_{stage}_seconds")
                if histogram is None:
                    continue
                for value in values:
                    histogram.observe(value)

    def observe_verb(self, verb: str, num_queries: int) -> None:
        """Record ``num_queries`` pairs answered under one wire verb.

        Feeds the ``verb_queries_total{verb=...}`` exposition series, so the
        traffic mix (point pairs vs one-to-many fan-outs) is visible to the
        scraper.
        """
        with self._lock:
            self._verbs[verb] = self._verbs.get(verb, 0) + num_queries

    def observe_kernel_op(self, kernel: str, op: str, num_queries: int) -> None:
        """Record ``num_queries`` pairs evaluated by one kernel backend op.

        Feeds ``kernel_op_queries_total{kernel=...,op=...}``: per-backend op
        counters show which compiled kernel actually carried the traffic
        (selection alone says what *would* run; this says what did).
        """
        with self._lock:
            ops = self._kernel_ops.setdefault(kernel, {})
            ops[op] = ops.get(op, 0) + num_queries

    def observe_rejection(self) -> None:
        """Record one request rejected by admission control."""
        with self._lock:
            self._num_rejected += 1

    def observe_error(self) -> None:
        """Record one request that failed with an error."""
        with self._lock:
            self._num_errors += 1

    # ------------------------------------------------------------------ #
    # Reporting
    # ------------------------------------------------------------------ #

    @property
    def num_queries(self) -> int:
        """Total queries answered so far."""
        # Same locking discipline as snapshot(): the counter is written under
        # the lock, so it must be read under it too (a bare read could see a
        # torn/stale value on free-threaded builds and pessimistic memory
        # models, and was inconsistent with every other accessor).
        with self._lock:
            return self._num_queries

    def snapshot(
        self,
        *,
        cache_stats: Optional[CacheStats] = None,
        snapshot_version: Optional[int] = None,
        queue_depth: Optional[int] = None,
    ) -> Dict[str, float]:
        """One flat dictionary with every serving statistic.

        ``qps`` is measured over wall-clock uptime; ``busy_fraction`` is the
        share of uptime spent actually evaluating batches, a quick saturation
        indicator.
        """
        with self._lock:
            elapsed = max(time.perf_counter() - self._started, 1e-12)
            stats: Dict[str, float] = {
                names.UPTIME_SECONDS: elapsed,
                names.NUM_REQUESTS: self._num_requests,
                names.NUM_BATCHES: self._num_batches,
                names.NUM_QUERIES: self._num_queries,
                names.NUM_REJECTED: self._num_rejected,
                names.NUM_ERRORS: self._num_errors,
                names.QPS: self._num_queries / elapsed,
                names.BUSY_FRACTION: min(self._busy_seconds / elapsed, 1.0),
                names.AVERAGE_BATCH_SIZE: (
                    self._num_queries / self._num_batches if self._num_batches else 0.0
                ),
            }
            for name, value in self._latencies.percentiles().items():
                stats[f"latency_{name}_ms"] = value
            if self._histograms:
                stats["histograms"] = {
                    name: histogram.snapshot()
                    for name, histogram in self._histograms.items()
                }
            if self._verbs:
                stats["verbs"] = dict(self._verbs)
            if self._kernel_ops:
                stats["kernel_ops"] = {
                    kernel: dict(ops) for kernel, ops in self._kernel_ops.items()
                }
        stats.update(process_resource_stats())
        if cache_stats is not None:
            for name, value in cache_stats.as_dict().items():
                stats[f"cache_{name}"] = value
        if snapshot_version is not None:
            stats[names.SNAPSHOT_VERSION] = snapshot_version
        if queue_depth is not None:
            stats[names.QUEUE_DEPTH] = queue_depth
        return stats

    def render(self, **snapshot_kwargs) -> str:
        """Human-readable multi-line rendering of :meth:`snapshot`.

        Scalar statistics come first; histograms are summarised one line each
        (count/sum) instead of dumping every bucket.
        """
        stats = self.snapshot(**snapshot_kwargs)
        histograms = stats.pop("histograms", None)
        verbs = stats.pop("verbs", None)
        kernel_ops = stats.pop("kernel_ops", None)
        alerts = stats.pop("alerts", None)
        lines = ["serving metrics"]
        for key in sorted(stats):
            value = stats[key]
            rendered = f"{value:.4f}" if isinstance(value, float) else str(value)
            lines.append(f"  {key:24s} {rendered}")
        if histograms:
            lines.append("  histograms")
            for name in sorted(histograms):
                hist = histograms[name]
                lines.append(
                    f"    {name:26s} count={hist['count']:<10d} "
                    f"sum={hist['sum']:.4f}s"
                )
        if verbs:
            lines.append("  verbs")
            for verb in sorted(verbs):
                lines.append(f"    {verb:26s} {int(verbs[verb]):d}")
        if kernel_ops:
            lines.append("  kernel ops")
            for kernel in sorted(kernel_ops):
                for op in sorted(kernel_ops[kernel]):
                    label = f"{kernel}/{op}"
                    lines.append(f"    {label:26s} {int(kernel_ops[kernel][op]):d}")
        if alerts:
            lines.append("  alerts")
            for alert in alerts:
                label = str(alert.get("alertname", "?"))
                lines.append(
                    f"    {label:26s} {alert.get('alertstate', '?')}"
                    f" ({alert.get('severity', '?')})"
                )
        return "\n".join(lines)

    def render_json(self, **snapshot_kwargs) -> str:
        """Single-line JSON rendering of :meth:`snapshot` (the ``stats json`` wire reply)."""
        return json.dumps(self.snapshot(**snapshot_kwargs), sort_keys=True)

    def render_prometheus(self, **snapshot_kwargs) -> str:
        """Prometheus text-exposition rendering of :meth:`snapshot`.

        Served by the async front end's ``GET /metrics`` admin endpoint; see
        :func:`render_prometheus_text` for the format details.
        """
        return render_prometheus_text(self.snapshot(**snapshot_kwargs))


def index_health_stats(engine, manager=None) -> Dict[str, object]:
    """Index-health gauges for the metrics endpoint, duck-typed off ``engine``.

    Inspects whatever the serving stack currently holds — a
    :class:`~repro.serving.engine.BatchQueryEngine` or ``None`` — plus an
    optional :class:`~repro.serving.snapshot.SnapshotManager`, and reports:

    * ``index_label_entries`` — total normal label entries in the served index,
    * ``index_bit_parallel_roots`` — bit-parallel BFS roots it carries,
    * ``index_num_vertices`` — vertices the served index covers (the
      denominator of the dirty-vertex-ratio alert rule),
    * ``index_dirty_vertices`` — shadow vertices dirtied since the last publish,
    * ``kernel_name`` / ``kernel_narrow`` — the batch kernel's key layout
      (``"narrow"`` for ``uint32`` keys, else ``"wide"``).

    Everything is best-effort ``getattr`` so the helper works against any
    engine shape (and quietly reports less for engines that expose less);
    values update as snapshots are published, so graphing them shows index
    growth and publish churn over time.
    """
    stats: Dict[str, object] = {}
    index = getattr(engine, "index", None)
    if index is None and manager is not None:
        index = getattr(getattr(manager, "current", None), "index", None)
    if index is not None:
        label_set = getattr(index, "label_set", None)
        if label_set is not None:
            stats[names.INDEX_LABEL_ENTRIES] = int(label_set.total_entries())
            num_vertices = getattr(label_set, "num_vertices", None)
            if num_vertices is not None:
                stats[names.INDEX_NUM_VERTICES] = int(num_vertices)
        bit_parallel = getattr(index, "bit_parallel_labels", None)
        if bit_parallel is not None:
            stats[names.INDEX_BIT_PARALLEL_ROOTS] = int(bit_parallel.num_roots)
    if manager is not None:
        dirty = getattr(manager, "dirty_vertex_count", None)
        if dirty is not None:
            stats[names.INDEX_DIRTY_VERTICES] = int(dirty)
    # reprolint: disable=RL008 -- the engine *method* name, not the series
    kernel_info = getattr(engine, "kernel_info", None)
    if callable(kernel_info):
        try:
            info = kernel_info()
        except Exception:
            info = None
        if info:
            stats["kernel_name"] = str(info.get("name", ""))
            stats[names.KERNEL_NARROW] = int(bool(info.get("narrow")))
    return stats
