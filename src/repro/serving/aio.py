"""Asyncio serving front end: the repository's one request pipeline.

:class:`AsyncQueryFrontend` owns admission control, coalescing, the hot-pair
cache, tracing, mutation dispatch and metrics.  Every way of reaching the
index goes through it: TCP clients and the HTTP admin plane on its event
loop, and stdio sessions and in-process callers through the blocking
:class:`~repro.serving.server.QueryServer` facade, which runs a front end on
a private loop thread.

* **Line protocol over asyncio streams.**  Every connection speaks the one
  line protocol (``s t`` queries, ``many`` fan-outs,
  ``add``/``remove``/``publish`` mutations, ``STATS`` / ``STATS JSON``,
  ``TRACES``, ``ALERTS``, ``QUIT``) through :meth:`_handle_line`, which
  stdio sessions share; replies are rendered by the
  :mod:`~repro.serving.protocol` formatters.  Thousands of mostly-idle
  connections cost a couple of suspended coroutines each, not a thread.
* **Awaitable micro-batching.**  Requests land on an :class:`asyncio.Queue`;
  a batcher coroutine coalesces them under a deadline + max-batch bound, with
  ``max_pending`` admission control, and dispatches each batch to the engine
  through ``run_in_executor`` — CPU work (numpy label merges) never blocks
  the loop, so accepts and reads keep flowing while a batch computes.
* **HTTP/1.1 admin plane.**  A second listener answers ``GET /metrics``
  (Prometheus text exposition — counters, gauges, latency/stage histograms
  and index-health gauges rendered from
  :class:`~repro.serving.metrics.ServerMetrics`), ``GET /healthz`` (JSON
  liveness incl. snapshot version and connection count), ``POST /publish``
  (hot-swap pending mutations), ``GET /alerts`` (health-engine rule states
  when a :class:`~repro.serving.alerts.HealthMonitor` is attached), and a
  debug surface: ``GET /traces`` (recent + slow request traces as JSON),
  ``GET /debug/threads`` (all-thread stack dump),
  ``GET /debug/profile?seconds=N`` (cProfile capture of the event loop,
  pstats text) and ``GET /debug/bundle`` (one-shot JSON diagnostics
  archive: metrics, alerts, traces, thread dump, index health and the
  environment fingerprint) — curl-able, scrapeable, no client library
  needed.
* **Graceful drain.**  ``SIGTERM``/``SIGINT`` (or :meth:`request_stop`) stop
  admissions, finish every in-flight batch, flush the replies, then close
  the connections — clients always see a final response or a clean EOF.

The front end accepts two backends — a
:class:`~repro.serving.snapshot.SnapshotManager` or a bare
:class:`~repro.serving.engine.BatchQueryEngine` — and the same hot-pair
:class:`~repro.serving.cache.LRUCache`.
"""

from __future__ import annotations

import asyncio
import cProfile
import io
import json
import pstats
import signal
import sys
import threading
import time
import traceback
from concurrent.futures import ThreadPoolExecutor
from typing import Callable, Optional, Sequence, Tuple, Union
from urllib.parse import parse_qs

import numpy as np

from repro.core.index import validate_vertex_ids
from repro.errors import (
    AdmissionError,
    GraphError,
    IndexBuildError,
    ServingError,
    VertexError,
)
from repro.obs.schema import collect_fingerprint
from repro.serving.alerts import (
    HealthMonitor,
    ShadowCanary,
    alerts_wire_reply,
    augment_snapshot,
)
from repro.serving.cache import LRUCache, cached_query_batch
from repro.serving.engine import BatchQueryEngine
from repro.serving.metrics import (
    ServerMetrics,
    index_health_stats,
    render_prometheus_text,
)
from repro.serving.protocol import (
    ALERTS_COMMAND,
    OP_ADD,
    OP_PUBLISH,
    OP_REMOVE,
    QUIT_COMMANDS,
    STATS_COMMANDS,
    TRACES_COMMAND,
    VERB_ONE_TO_MANY,
    VERB_PAIR,
    format_distance_line,
    format_error,
    format_mutation_ack,
    format_one_to_many_reply,
    format_parse_error,
    format_publish_ack,
    is_mutation,
    is_one_to_many,
    normalize_command,
    parse_mutation,
    parse_one_to_many,
    parse_pair,
)
from repro.serving.snapshot import SnapshotManager
from repro.serving.tracing import StructuredLogger, Trace, TraceRecorder

__all__ = ["AsyncQueryFrontend", "NOT_ACCEPTING"]

#: The error for a query reaching a front end that is not started or draining.
NOT_ACCEPTING = "server is not accepting requests; call start() first"

#: Hard cap on one ``/debug/profile`` capture, seconds.
_MAX_PROFILE_SECONDS = 30.0

_HTTP_REASONS = {
    200: "OK",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    409: "Conflict",
}

#: Admin-plane request bodies larger than this are rejected outright.
_MAX_HTTP_BODY = 1 << 16


class _AsyncRequest:
    """One admitted unit of work: aligned id arrays plus the future to resolve."""

    __slots__ = ("sources", "targets", "future", "created", "dequeued", "trace")

    def __init__(
        self,
        sources: np.ndarray,
        targets: np.ndarray,
        future: "asyncio.Future[np.ndarray]",
    ) -> None:
        self.sources = sources
        self.targets = targets
        self.future = future
        self.created = time.perf_counter()
        #: Stamped by the batcher coroutine when it pulls the request off the
        #: queue; ``dequeued - created`` is the queue-wait stage of the trace.
        self.dequeued = self.created
        #: The request's open trace (``None`` when tracing is off).
        self.trace: Optional[Trace] = None

    def __len__(self) -> int:
        return int(self.sources.shape[0])

    def waits(self, dispatched: float) -> Tuple[float, float]:
        """``(queue wait, coalescing wait)`` in a batch dispatched at ``dispatched``."""
        return (
            max(self.dequeued - self.created, 0.0),
            max(dispatched - self.dequeued, 0.0),
        )


class AsyncQueryFrontend:
    """Event-loop front end: micro-batched queries, admin plane, graceful drain.

    Parameters
    ----------
    backend:
        A :class:`~repro.serving.snapshot.SnapshotManager` (hot-swap serving
        and mutations) or a bare :class:`~repro.serving.engine.BatchQueryEngine`
        (static index).
    cache:
        Optional hot-pair :class:`~repro.serving.cache.LRUCache`; hits skip
        the engine, and the cache is cleared when the snapshot version
        changes.
    max_batch_size / batch_timeout / max_pending:
        Most pairs coalesced into one engine call, seconds the batcher waits
        for more requests before dispatching a partial batch, and the bound
        on admitted, unfinished requests (admission control).
    metrics:
        Optional shared :class:`~repro.serving.metrics.ServerMetrics`.
    tracer:
        :class:`~repro.serving.tracing.TraceRecorder` collecting per-request
        traces, served on ``GET /traces`` and the ``TRACES`` wire command
        (default: a fresh recorder; pass a
        :class:`~repro.serving.tracing.NullTraceRecorder` to disable).
    logger:
        Optional :class:`~repro.serving.tracing.StructuredLogger` for
        lifecycle events (``frontend_start`` / ``frontend_stop`` /
        ``snapshot_publish``).

    All coroutine methods must run on the loop :meth:`start` was awaited on.
    Typical embedding::

        frontend = AsyncQueryFrontend(manager, cache=LRUCache(65_536))
        asyncio.run(frontend.serve("0.0.0.0", 5577, http_port=9100))

    or drive the pieces yourself (tests do)::

        await frontend.start()
        server = await frontend.start_tcp("127.0.0.1", 0)
        ...
        await frontend.stop()
    """

    def __init__(
        self,
        backend: Union[SnapshotManager, BatchQueryEngine],
        *,
        cache: Optional[LRUCache] = None,
        max_batch_size: int = 2048,
        batch_timeout: float = 0.002,
        max_pending: int = 4096,
        metrics: Optional[ServerMetrics] = None,
        tracer: Optional[TraceRecorder] = None,
        logger: Optional[StructuredLogger] = None,
    ) -> None:
        self._backend = backend
        self.cache = cache
        self.tracer = tracer if tracer is not None else TraceRecorder()
        self.logger = logger
        self.max_batch_size = int(max_batch_size)
        self.batch_timeout = float(batch_timeout)
        self.max_pending = int(max_pending)
        self.metrics = metrics if metrics is not None else ServerMetrics()
        #: Optional caller-owned attachments (the CLI wires them): a
        #: background health engine and the shadow correctness canary.
        #: Their stats/alerts fold into every metrics snapshot when set.
        self.health: Optional[HealthMonitor] = None
        self.shadow: Optional[ShadowCanary] = None
        manager = self.snapshot_manager
        self._cache_version = manager.version if manager is not None else None

        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._queue: Optional["asyncio.Queue[Optional[_AsyncRequest]]"] = None
        self._executor: Optional[ThreadPoolExecutor] = None
        self._batcher_task: Optional[asyncio.Task] = None
        self._lag_task: Optional[asyncio.Task] = None
        #: Latest sampled event-loop scheduling lag (seconds); written only
        #: by the lag task on the loop, read by metrics_snapshot.
        self._loop_lag = 0.0
        self._lag_interval = 0.5
        self._draining: Optional[asyncio.Event] = None
        self._stop_requested: Optional[asyncio.Event] = None
        self._servers = []
        self._tcp_server: Optional[asyncio.AbstractServer] = None
        self._http_server: Optional[asyncio.AbstractServer] = None
        self._connections: set = set()
        self._admin_connections: set = set()
        #: Requests admitted but not yet completed (the qsize analogue).
        self._pending = 0
        self._accepting = False
        self._running = False
        #: One /debug/profile capture at a time (cProfile is process-global).
        self._profiling = False

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #

    @property
    def snapshot_manager(self) -> Optional[SnapshotManager]:
        """The backing snapshot manager, when hot swap is enabled."""
        if isinstance(self._backend, SnapshotManager):
            return self._backend
        return None

    @property
    def running(self) -> bool:
        """Whether the batcher loop is active."""
        return self._running

    @property
    def num_connections(self) -> int:
        """Open line-protocol connections."""
        return len(self._connections)

    def _listener_address(
        self, server: Optional[asyncio.AbstractServer]
    ) -> Optional[Tuple[str, int]]:
        if server is None or not server.sockets:
            return None
        name = server.sockets[0].getsockname()
        return (name[0], name[1])

    @property
    def tcp_address(self) -> Optional[Tuple[str, int]]:
        """Bound ``(host, port)`` of the line-protocol listener (if started)."""
        return self._listener_address(self._tcp_server)

    @property
    def http_address(self) -> Optional[Tuple[str, int]]:
        """Bound ``(host, port)`` of the HTTP admin listener (if started)."""
        return self._listener_address(self._http_server)

    def _current_engine(self) -> BatchQueryEngine:
        if isinstance(self._backend, SnapshotManager):
            return self._backend.current.engine
        return self._backend

    def _current_engine_and_invalidate(self) -> BatchQueryEngine:
        """One snapshot grab per batch, with cache invalidation on version change."""
        manager = self.snapshot_manager
        if manager is None:
            return self._backend
        snapshot = manager.current
        if self.cache is not None and snapshot.version != self._cache_version:
            self.cache.clear()
            self._cache_version = snapshot.version
        return snapshot.engine

    # ------------------------------------------------------------------ #
    # Metrics
    # ------------------------------------------------------------------ #

    def _metrics_kwargs(self) -> dict:
        manager = self.snapshot_manager
        return dict(
            cache_stats=self.cache.stats if self.cache is not None else None,
            snapshot_version=manager.version if manager is not None else None,
            queue_depth=self._pending,
        )

    def metrics_snapshot(self) -> dict:
        """Serving statistics including cache, snapshot version, queue depth,
        the open-connection count, the index-health gauges (label entries,
        bit-parallel roots, dirty vertices, generation identity/bytes) and —
        when a health monitor / shadow canary is attached — the alert gauges,
        active alerts and shadow-canary counters."""
        stats = self.metrics.snapshot(**self._metrics_kwargs())
        stats["num_connections"] = self.num_connections
        stats["event_loop_lag_seconds"] = self._loop_lag
        stats.update(index_health_stats(self._current_engine(), self.snapshot_manager))
        return augment_snapshot(stats, health=self.health, shadow=self.shadow)

    def metrics_json(self) -> str:
        """Single-line JSON metrics (the ``stats json`` wire reply)."""
        return json.dumps(self.metrics_snapshot(), sort_keys=True)

    def metrics_prometheus(self) -> str:
        """Prometheus text exposition of the current metrics (``GET /metrics``)."""
        return render_prometheus_text(self.metrics_snapshot())

    def traces_json(self, *, limit: Optional[int] = 32) -> str:
        """JSON trace dump (``GET /traces`` body and the ``TRACES`` wire reply)."""
        return json.dumps(self.tracer.snapshot(limit=limit), sort_keys=True)

    def alerts_json(self) -> str:
        """JSON alert payload (``GET /alerts`` body and the ``ALERTS`` reply)."""
        return alerts_wire_reply(self.health)

    def diagnostics_bundle(self) -> dict:
        """One-shot diagnostics archive (``GET /debug/bundle``).

        Bundles everything an operator would otherwise collect endpoint by
        endpoint during an incident: the metrics snapshot (already including
        alert gauges and shadow counters), the full alert payload, recent and
        slow traces, an all-thread stack dump, index health, kernel identity
        and the environment fingerprint.  Runs ``collect_fingerprint`` (a git
        subprocess) so callers on the event loop must dispatch through the
        executor.
        """
        engine = self._current_engine()
        bundle: dict = {
            "metrics": self.metrics_snapshot(),
            "alerts": json.loads(self.alerts_json()),
            "traces": self.tracer.snapshot(limit=32),
            "threads": self._debug_threads_text(),
            "kernel": {"kernel_name": engine.kernel_name},
            "index_health": index_health_stats(engine, self.snapshot_manager),
        }
        try:
            bundle["environment"] = collect_fingerprint().as_dict()
        except Exception:
            bundle["environment"] = {}
        return bundle

    # ------------------------------------------------------------------ #
    # Lifecycle
    # ------------------------------------------------------------------ #

    async def start(self) -> "AsyncQueryFrontend":
        """Bind to the running loop and start the batcher (idempotent)."""
        if self._running:
            return self
        self._loop = asyncio.get_running_loop()
        self._queue = asyncio.Queue()
        # Two threads: one effectively serialises engine batches (the batcher
        # awaits each dispatch), the other keeps mutations/publishes from
        # stalling query batches behind them.
        self._executor = ThreadPoolExecutor(
            max_workers=2, thread_name_prefix="repro-pll-aio"
        )
        self._draining = asyncio.Event()
        self._stop_requested = asyncio.Event()
        self._accepting = True
        self._running = True
        self._batcher_task = asyncio.create_task(self._batcher_loop())
        self._lag_task = asyncio.create_task(self._lag_loop())
        if self.logger is not None:
            self.logger.event(
                "frontend_start",
                max_batch_size=self.max_batch_size,
                batch_timeout=self.batch_timeout,
                max_pending=self.max_pending,
            )
        return self

    async def stop(self) -> None:
        """Drain and shut down: finish in-flight work, then close connections.

        Admission stops immediately (late submissions fail fast with
        :class:`~repro.errors.ServingError`, which the protocol renders as a
        clean ``error:`` line), every already-admitted request completes and
        its reply is flushed, then remaining connections are closed.  Safe to
        call once per :meth:`start`; concurrent callers are idempotent.
        """
        if not self._running:
            return
        self._running = False
        self._accepting = False
        self._draining.set()
        for server in self._servers:
            server.close()
        for server in self._servers:
            # Bounded: from Python 3.12.1 wait_closed() also waits for every
            # connection handler, and an idle admin connection (opened, no
            # request sent) would hold it forever — the force-close below
            # deals with those.
            try:
                await asyncio.wait_for(server.wait_closed(), timeout=1.0)
            except Exception:  # pragma: no cover - timeout or platform teardown
                pass
        self._servers.clear()
        if self._lag_task is not None:
            self._lag_task.cancel()
            try:
                await self._lag_task
            except asyncio.CancelledError:
                pass
            self._lag_task = None
        # Every request admitted before the flag flipped completes here...
        await self._queue.join()
        self._queue.put_nowait(None)
        if self._batcher_task is not None:
            await self._batcher_task
            self._batcher_task = None
        # ...and the handlers get a grace window to flush the final replies
        # and exit on their own (they watch the draining event) before any
        # straggler — e.g. a client streaming queries forever — is cut off.
        deadline = self._loop.time() + 1.0
        while self._connections and self._loop.time() < deadline:
            await asyncio.sleep(0.01)
        for writer in list(self._connections) + list(self._admin_connections):
            writer.close()
        deadline = self._loop.time() + 5.0
        while (
            (self._connections or self._admin_connections)
            and self._loop.time() < deadline
        ):
            await asyncio.sleep(0.01)
        # Executor teardown joins its worker threads (wait=True default) —
        # run it off-loop so a slow in-flight publish cannot stall the drain.
        await self._loop.run_in_executor(None, self._executor.shutdown)
        if self.logger is not None:
            self.logger.event(
                "frontend_stop", num_queries=self.metrics.num_queries
            )

    def request_stop(self) -> None:
        """Ask :meth:`serve` to drain and return (signal-handler safe)."""
        if self._stop_requested is not None:
            self._stop_requested.set()

    def request_stop_threadsafe(self) -> None:
        """Like :meth:`request_stop`, callable from any thread."""
        if self._loop is not None:
            self._loop.call_soon_threadsafe(self.request_stop)

    async def start_tcp(
        self, host: str = "127.0.0.1", port: int = 0, *, backlog: int = 2048
    ) -> asyncio.AbstractServer:
        """Start the line-protocol listener; ``port=0`` binds an ephemeral port."""
        server = await asyncio.start_server(
            self._handle_connection, host, port, backlog=backlog
        )
        self._servers.append(server)
        self._tcp_server = server
        return server

    async def start_http(
        self, host: str = "127.0.0.1", port: int = 0, *, backlog: int = 128
    ) -> asyncio.AbstractServer:
        """Start the HTTP admin listener (``/metrics``, ``/healthz``,
        ``/publish``, ``/alerts``, ``/traces``, ``/debug/threads``,
        ``/debug/profile``, ``/debug/bundle``)."""
        server = await asyncio.start_server(
            self._handle_http, host, port, backlog=backlog
        )
        self._servers.append(server)
        self._http_server = server
        return server

    async def serve(
        self,
        host: str = "127.0.0.1",
        port: int = 0,
        *,
        http_host: Optional[str] = None,
        http_port: Optional[int] = None,
        install_signal_handlers: bool = True,
        ready: Optional[Callable[["AsyncQueryFrontend"], None]] = None,
    ) -> None:
        """Run the front end until a stop is requested, then drain.

        Starts the batcher and the TCP listener (plus the HTTP admin listener
        when ``http_port`` is given), installs ``SIGTERM``/``SIGINT``
        handlers that trigger a graceful drain (where the platform supports
        loop signal handlers), invokes ``ready`` once the ports are bound
        (read them from :attr:`tcp_address` / :attr:`http_address`), and
        blocks until :meth:`request_stop` — or a signal — fires.
        """
        await self.start()
        await self.start_tcp(host, port)
        if http_port is not None:
            await self.start_http(http_host if http_host is not None else host, http_port)
        loop = asyncio.get_running_loop()
        installed = []
        if install_signal_handlers:
            for signum in (signal.SIGTERM, signal.SIGINT):
                try:
                    loop.add_signal_handler(signum, self.request_stop)
                    installed.append(signum)
                except (NotImplementedError, RuntimeError, ValueError):
                    pass  # non-main thread or unsupported platform
        if ready is not None:
            ready(self)
        try:
            await self._stop_requested.wait()
        finally:
            # Drain with the handlers still installed: a second SIGTERM during
            # the drain must stay a (redundant) stop request, not the default
            # hard kill that would cut off in-flight replies.
            try:
                await self.stop()
            finally:
                for signum in installed:
                    loop.remove_signal_handler(signum)

    # ------------------------------------------------------------------ #
    # Client API (coroutines)
    # ------------------------------------------------------------------ #

    def _check_admission(self) -> None:
        """Raise unless one more request may be admitted right now."""
        if not self._accepting:
            raise ServingError(NOT_ACCEPTING)
        if self._pending >= self.max_pending:
            self.metrics.observe_rejection()
            raise AdmissionError(
                f"request rejected: {self.max_pending} requests already pending"
            )

    def submit(
        self, sources: Sequence[int], targets: Sequence[int]
    ) -> "asyncio.Future[np.ndarray]":
        """Admit one request of aligned pairs; returns the future to await.

        Synchronous (no suspension point between the admission check and the
        enqueue), so back-to-back submits observe a consistent pending count.

        Raises
        ------
        AdmissionError
            When ``max_pending`` requests are already admitted.
        ServingError
            When the front end is not started or is draining.
        VertexError
            When a vertex id is out of range — validated at submission so one
            malformed request cannot fail the batch it would have joined.
        ValueError
            When ``sources`` and ``targets`` differ in length; coalesced
            into one batch, misaligned requests would answer each other's
            pairs.
        """
        self._check_admission()
        source_array = np.atleast_1d(np.asarray(sources, dtype=np.int64))
        target_array = np.atleast_1d(np.asarray(targets, dtype=np.int64))
        if source_array.shape != target_array.shape:
            raise ValueError("sources and targets must have the same length")
        num_vertices = self._current_engine().num_vertices
        validate_vertex_ids(source_array, num_vertices)
        validate_vertex_ids(target_array, num_vertices)
        future: "asyncio.Future[np.ndarray]" = self._loop.create_future()
        self._pending += 1
        request = _AsyncRequest(source_array, target_array, future)
        # Trace id minted at admission, before the request touches the queue.
        request.trace = self.tracer.start(len(request))
        self._queue.put_nowait(request)
        return future

    async def query_batch(
        self, sources: Sequence[int], targets: Sequence[int]
    ) -> np.ndarray:
        """Submit aligned pairs and await the distances."""
        return await self.submit(sources, targets)

    async def distance(self, s: int, t: int) -> float:
        """Scalar convenience query."""
        return float((await self.submit([s], [t]))[0])

    async def query_one_to_many(
        self, source: int, targets: Optional[Sequence[int]] = None
    ) -> np.ndarray:
        """Distances from ``source`` to ``targets`` (all vertices when ``None``).

        Runs the engine fan-out on the executor (one kernel call, off the
        loop) rather than through the pair batcher: one fan-out amortises its
        own kernel call, so coalescing it with point pairs would only delay
        both.  Traced, histogrammed and counted like a one-request batch,
        labelled with the ``one_to_many`` verb.  Fan-outs still count
        against ``max_pending`` while in flight, so a flood of ``many`` lines
        meets the same admission gate as point queries instead of bypassing
        overload protection.
        """
        # Same synchronous check-then-increment as submit(): no suspension
        # point in between, so concurrent coroutines see a consistent count.
        self._check_admission()
        self._pending += 1
        try:
            start = time.perf_counter()
            want_spans = self.tracer.enabled or self.metrics.has_histograms
            spans: Optional[list] = [] if want_spans else None
            engine = self._current_engine_and_invalidate()
            trace = self.tracer.start(
                len(targets) if targets is not None else engine.num_vertices
            )

            def _run() -> np.ndarray:
                return engine.query_one_to_many(source, targets, span_sink=spans)

            try:
                distances = await self._loop.run_in_executor(self._executor, _run)
            except Exception:
                self.metrics.observe_error()
                self.tracer.record(trace, time.perf_counter() - start, status="error")
                raise
        finally:
            self._pending -= 1
        completed = time.perf_counter()
        if spans and trace is not None:
            trace.extend(spans)
            self.tracer.record(trace, completed - start)
        self._observe(
            VERB_ONE_TO_MANY,
            int(distances.shape[0]),
            start,
            completed,
            [start],
            spans=spans,
        )
        return distances

    async def publish(self):
        """Publish pending mutations as a new snapshot (off-loop); returns it."""
        manager = self._require_manager()
        snapshot = await self._loop.run_in_executor(self._executor, manager.publish)
        if self.logger is not None:
            self.logger.event(
                "snapshot_publish", version=snapshot.version, source=snapshot.source
            )
        return snapshot

    def _require_manager(self) -> SnapshotManager:
        manager = self.snapshot_manager
        if manager is None:
            raise ServingError(
                "mutations require a snapshot-manager backend; this front "
                "end wraps a bare engine"
            )
        return manager

    async def apply_mutation(
        self, op: str, endpoints: Optional[Tuple[int, int]] = None
    ) -> str:
        """Apply one parsed mutation (``add`` / ``remove`` / ``publish``).

        The work runs on the executor so a slow publish never stalls the
        loop; returns the acknowledgement line.
        """
        return await self._loop.run_in_executor(
            self._executor, self._apply_mutation_sync, op, endpoints
        )

    def _apply_mutation_sync(
        self, op: str, endpoints: Optional[Tuple[int, int]]
    ) -> str:
        """The one mutation dispatch: live protocol lines, the blocking
        facade and ``--mutations`` replay all apply mutations here, on the
        calling thread.  Returns the wire acknowledgement."""
        manager = self._require_manager()
        if op == OP_PUBLISH:
            snapshot = manager.publish()
            return format_publish_ack(snapshot.version)
        if endpoints is None:
            raise ValueError(f"mutation {op!r} requires edge endpoints")
        a, b = endpoints
        if op == OP_ADD:
            manager.insert_edge(a, b)
        elif op == OP_REMOVE:
            manager.remove_edge(a, b)
        else:
            raise ValueError(f"unknown mutation {op!r}")
        return format_mutation_ack(op, a, b, manager.pending_updates)

    # ------------------------------------------------------------------ #
    # Batcher
    # ------------------------------------------------------------------ #

    async def _batcher_loop(self) -> None:
        """Coalesce admitted requests into engine batches until the sentinel."""
        while True:
            request = await self._queue.get()
            if request is None:
                self._queue.task_done()
                return
            request.dequeued = time.perf_counter()
            batch = [request]
            gathered = len(request)
            deadline = self._loop.time() + self.batch_timeout
            stopping = False
            while gathered < self.max_batch_size:
                remaining = deadline - self._loop.time()
                if remaining <= 0:
                    break
                try:
                    more = await asyncio.wait_for(self._queue.get(), remaining)
                except asyncio.TimeoutError:
                    break
                if more is None:
                    self._queue.task_done()
                    stopping = True
                    break
                more.dequeued = time.perf_counter()
                batch.append(more)
                gathered += len(more)
            await self._process_batch(batch)
            if stopping:
                return

    def _evaluate_sync(
        self,
        engine: BatchQueryEngine,
        sources: np.ndarray,
        targets: np.ndarray,
        span_sink=None,
    ) -> np.ndarray:
        """Cache-fronted engine evaluation; runs on the executor thread."""
        return cached_query_batch(
            engine, self.cache, sources, targets, span_sink=span_sink
        )

    @staticmethod
    def _complete(request: _AsyncRequest, result: np.ndarray) -> None:
        # The future is done when the awaiting client vanished (connection
        # closed cancels the await, which cancels the future) — drop silently.
        if not request.future.done():
            request.future.set_result(result)

    @staticmethod
    def _fail(request: _AsyncRequest, error: BaseException) -> None:
        if not request.future.done():
            request.future.set_exception(error)

    def _observe(
        self,
        verb: str,
        num_pairs: int,
        start: float,
        completed: float,
        created: Sequence[float],
        *,
        spans: Optional[list] = None,
        queued: Sequence[_AsyncRequest] = (),
        num_errors: int = 0,
    ) -> None:
        """Record one finished batch, retry group or fan-out in one
        :meth:`~repro.serving.metrics.ServerMetrics.observe_batch` call.

        Every answered request was admitted at one of ``created`` and
        answered at ``completed``.  When ``spans`` were collected and
        histograms are on, the stage histograms get the queue and coalescing
        waits of the ``queued`` requests plus the durations of the batch's
        ``kernel`` and ``cache_probe`` spans.
        """
        stages: Optional[dict] = None
        if spans is not None and self.metrics.has_histograms:
            waits = [request.waits(start) for request in queued]
            stages = {
                "queue": [queue_wait for queue_wait, _ in waits],
                "batch": [coalesce for _, coalesce in waits],
            }
            for span in spans:
                stages.setdefault(span.name, []).append(span.seconds)
        self.metrics.observe_batch(
            verb,
            num_pairs,
            completed - start,
            [completed - admitted for admitted in created],
            stages=stages,
            num_errors=num_errors,
        )

    def _trace_batch(
        self, batch, batch_spans, start: float, eval_done: float, completed: float
    ) -> None:
        """Stitch batch-shared spans into every request trace.

        Each request gets its own ``queue`` / ``batch`` / ``reply`` spans
        (those durations differ per request) plus the *shared* cache-probe
        and kernel span objects — every request in the batch rode the
        same engine call.
        """
        num_pairs = sum(len(request) for request in batch)
        reply_seconds = completed - eval_done
        for request in batch:
            trace = request.trace
            if trace is None:
                continue
            queue_wait, coalesce = request.waits(start)
            trace.add_span("queue", queue_wait)
            trace.add_span(
                "batch",
                coalesce,
                batch_pairs=num_pairs,
                batch_requests=len(batch),
            )
            trace.extend(batch_spans)
            trace.add_span("reply", reply_seconds)
            self.tracer.record(trace, completed - request.created)

    async def _process_batch(self, batch) -> None:
        start = time.perf_counter()
        # One span list for the whole batch: the cache probe and engine
        # evaluation happen once per batch, so every request trace shares
        # their spans.  Skipped when neither tracing nor stage histograms
        # want the data.  The executor thread appends to it only before the
        # await completes, so the loop-side read below never races it.
        want_spans = self.tracer.enabled or self.metrics.has_histograms
        batch_spans = [] if want_spans else None
        try:
            engine = self._current_engine_and_invalidate()
            sources = np.concatenate([request.sources for request in batch])
            targets = np.concatenate([request.targets for request in batch])
            distances = await self._loop.run_in_executor(
                self._executor,
                self._evaluate_sync,
                engine,
                sources,
                targets,
                batch_spans,
            )
        except Exception:
            # Retry each request alone so one poisoned or oversized request
            # (e.g. ids stale after a hot swap to a smaller index) cannot
            # fail the unrelated requests it was coalesced with.
            succeeded = []
            for request in batch:
                try:
                    result = await self._loop.run_in_executor(
                        self._executor,
                        self._evaluate_sync,
                        self._current_engine_and_invalidate(),
                        request.sources,
                        request.targets,
                    )
                except Exception as single_exc:
                    self._fail(request, single_exc)
                    self.tracer.record(
                        request.trace,
                        time.perf_counter() - request.created,
                        status="error",
                    )
                else:
                    self._complete(request, result)
                    succeeded.append(request)
            completed = time.perf_counter()
            self._observe(
                VERB_PAIR,
                sum(len(request) for request in succeeded),
                start,
                completed,
                [request.created for request in succeeded],
                num_errors=len(batch) - len(succeeded),
            )
            for request in succeeded:
                self.tracer.record(
                    request.trace, completed - request.created, status="retried"
                )
            return
        finally:
            for _ in batch:
                self._queue.task_done()
            self._pending -= len(batch)
        eval_done = time.perf_counter()
        offset = 0
        for request in batch:
            self._complete(request, distances[offset: offset + len(request)])
            offset += len(request)
        completed = time.perf_counter()
        self._observe(
            VERB_PAIR,
            int(sources.shape[0]),
            start,
            completed,
            [request.created for request in batch],
            spans=batch_spans,
            queued=batch,
        )
        shadow = self.shadow
        if shadow is not None:
            # After completion so sampling never sits between kernel and
            # reply; the canary copies the arrays before enqueueing.
            shadow.maybe_submit(engine, sources, targets, distances)
        if self.tracer.enabled:
            self._trace_batch(batch, batch_spans, start, eval_done, completed)

    async def _lag_loop(self) -> None:
        """Sample event-loop scheduling lag: how late a timed sleep wakes up.

        A healthy loop wakes within microseconds of the deadline; a loop
        wedged behind a blocking call (the exact failure RL002 hunts for
        statically) shows up here at runtime as lag on the
        ``event_loop_lag_seconds`` gauge.
        """
        while True:
            target = self._loop.time() + self._lag_interval
            await asyncio.sleep(self._lag_interval)
            self._loop_lag = max(0.0, self._loop.time() - target)

    # ------------------------------------------------------------------ #
    # Line protocol
    # ------------------------------------------------------------------ #

    async def _handle_line(self, line: str) -> Optional[str]:
        """Evaluate one protocol line; ``None`` ends the session.

        The one command surface: TCP connections and stdio sessions (through
        :func:`~repro.serving.server.serve_stdio`) both answer here.
        """
        stripped = line.strip()
        if not stripped:
            return ""
        command = normalize_command(stripped)
        if command in QUIT_COMMANDS:
            return None
        if command in STATS_COMMANDS:
            return self.metrics_json()
        if command == TRACES_COMMAND:
            return self.traces_json()
        if command == ALERTS_COMMAND:
            return self.alerts_json()
        if is_mutation(stripped):
            try:
                op, endpoints = parse_mutation(stripped)
            except ValueError as exc:
                return format_parse_error("mutation", stripped, exc)
            try:
                return await self.apply_mutation(op, endpoints)
            # ServingError: no writable shadow behind this front end;
            # GraphError covers out-of-range endpoints; IndexBuildError the
            # same from the dynamic oracle.  All client-attributable, so
            # answer with an error line instead of killing the session.
            except (ServingError, GraphError, IndexBuildError) as exc:
                return format_error(exc)
        if is_one_to_many(stripped):
            try:
                source, targets = parse_one_to_many(stripped)
            except ValueError as exc:
                return format_parse_error("query", stripped, exc)
            try:
                distances = await self.query_one_to_many(source, targets)
            except (AdmissionError, ServingError, VertexError, TimeoutError) as exc:
                return format_error(exc)
            return format_one_to_many_reply(source, targets, distances)
        try:
            s, t = parse_pair(stripped)
        except ValueError as exc:
            return format_parse_error("query", stripped, exc)
        try:
            distance = float((await self.submit([s], [t]))[0])
        # Client-attributable failures answer an error line, never a
        # traceback that kills the session: ServingError covers a draining
        # front end, TimeoutError an engine call that did not finish in
        # time.  Genuine engine bugs still raise.
        except (AdmissionError, ServingError, VertexError, TimeoutError) as exc:
            return format_error(exc)
        return format_distance_line(s, t, distance)

    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        """One line-protocol session; exits on EOF, ``QUIT`` or drain."""
        self._connections.add(writer)
        drain_wait = asyncio.ensure_future(self._draining.wait())
        try:
            while True:
                read = asyncio.ensure_future(reader.readline())
                done, _ = await asyncio.wait(
                    {read, drain_wait}, return_when=asyncio.FIRST_COMPLETED
                )
                if read not in done:
                    # Draining with no line in flight: close cleanly (EOF).
                    read.cancel()
                    break
                raw = read.result()
                if not raw:
                    break
                reply = await self._handle_line(raw.decode("utf-8", "replace"))
                if reply is None:
                    break
                if reply:
                    writer.write((reply + "\n").encode("utf-8"))
                    await writer.drain()
        except asyncio.CancelledError:
            raise
        except Exception:
            # A dropped connection mid-write (reset, broken pipe) — or any
            # similarly client-attributable failure — must not spam the loop's
            # exception handler or affect other sessions.
            pass
        finally:
            drain_wait.cancel()
            self._connections.discard(writer)
            writer.close()
            try:
                await writer.wait_closed()
            except Exception:
                pass

    # ------------------------------------------------------------------ #
    # HTTP admin plane
    # ------------------------------------------------------------------ #

    async def _http_respond(
        self,
        writer: asyncio.StreamWriter,
        status: int,
        body: str,
        content_type: str = "application/json",
    ) -> None:
        payload = body.encode("utf-8")
        head = (
            f"HTTP/1.1 {status} {_HTTP_REASONS.get(status, 'OK')}\r\n"
            f"Content-Type: {content_type}\r\n"
            f"Content-Length: {len(payload)}\r\n"
            "Connection: close\r\n\r\n"
        )
        writer.write(head.encode("latin-1") + payload)
        await writer.drain()

    async def _handle_http(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        """One admin-plane request (HTTP/1.1, one request per connection)."""
        self._admin_connections.add(writer)
        try:
            request_line = await reader.readline()
            if not request_line:
                return
            parts = request_line.decode("latin-1", "replace").split()
            if len(parts) < 2:
                await self._http_respond(
                    writer, 400, json.dumps({"error": "malformed request line"})
                )
                return
            method, target = parts[0].upper(), parts[1]
            content_length = 0
            while True:
                header = await reader.readline()
                if header in (b"\r\n", b"\n", b""):
                    break
                name, _, value = header.decode("latin-1", "replace").partition(":")
                if name.strip().lower() == "content-length":
                    try:
                        content_length = int(value.strip())
                    except ValueError:
                        content_length = 0
            if content_length:
                # The admin verbs take no body; read and discard a bounded
                # amount so the reply is not mistaken for a pipelined response.
                await reader.readexactly(min(content_length, _MAX_HTTP_BODY))
            path, _, query_string = target.partition("?")
            await self._dispatch_http(writer, method, path, query_string)
        except ValueError:
            # StreamReader raises ValueError for a request/header line over
            # the stream limit (64 KiB); answer 400 best effort — the
            # connection closes either way, but never as an unhandled
            # task exception.
            try:
                await self._http_respond(
                    writer,
                    400,
                    json.dumps({"error": "request line or header too long"}),
                )
            except Exception:
                pass
        except (
            asyncio.IncompleteReadError,
            ConnectionResetError,
            BrokenPipeError,
        ):
            pass
        finally:
            self._admin_connections.discard(writer)
            writer.close()
            try:
                await writer.wait_closed()
            except Exception:
                pass

    def _debug_threads_text(self) -> str:
        """All-thread stack dump (``GET /debug/threads``), plain text."""
        names = {
            thread.ident: thread.name for thread in threading.enumerate()
        }
        sections = []
        for ident, frame in sorted(sys._current_frames().items()):
            name = names.get(ident, "<unknown>")
            stack = "".join(traceback.format_stack(frame))
            sections.append(f"--- thread {ident} ({name}) ---\n{stack}")
        return "\n".join(sections) or "no threads\n"

    async def _debug_profile_text(self, seconds: float) -> str:
        """Profile the event-loop thread for ``seconds`` (``GET /debug/profile``).

        cProfile runs on the loop thread, so the capture covers exactly the
        work the loop does — protocol parsing, batch coalescing, reply writes
        — while executor/worker CPU time shows up as the time the loop spends
        awaiting them.  Returns pstats text sorted by cumulative time.
        """
        profiler = cProfile.Profile()
        profiler.enable()
        try:
            await asyncio.sleep(seconds)
        finally:
            profiler.disable()
        buffer = io.StringIO()
        stats = pstats.Stats(profiler, stream=buffer)
        stats.sort_stats("cumulative").print_stats(50)
        return buffer.getvalue()

    async def _dispatch_http(
        self, writer: asyncio.StreamWriter, method: str, path: str, query: str = ""
    ) -> None:
        if path == "/traces":
            if method != "GET":
                await self._http_respond(
                    writer, 405, json.dumps({"error": "use GET"})
                )
                return
            params = parse_qs(query)
            try:
                limit = int(params["limit"][0]) if "limit" in params else 32
            except (ValueError, IndexError):
                limit = 32
            if limit < 0:
                await self._http_respond(
                    writer, 400, json.dumps({"error": "limit must be non-negative"})
                )
                return
            await self._http_respond(writer, 200, self.traces_json(limit=limit))
            return
        if path == "/debug/threads":
            if method != "GET":
                await self._http_respond(
                    writer, 405, json.dumps({"error": "use GET"})
                )
                return
            await self._http_respond(
                writer,
                200,
                self._debug_threads_text(),
                content_type="text/plain; charset=utf-8",
            )
            return
        if path == "/debug/profile":
            if method != "GET":
                await self._http_respond(
                    writer, 405, json.dumps({"error": "use GET"})
                )
                return
            params = parse_qs(query)
            try:
                seconds = float(params["seconds"][0]) if "seconds" in params else 1.0
            except (ValueError, IndexError):
                await self._http_respond(
                    writer, 400, json.dumps({"error": "seconds must be a number"})
                )
                return
            if not seconds > 0:
                await self._http_respond(
                    writer, 400, json.dumps({"error": "seconds must be positive"})
                )
                return
            seconds = min(seconds, _MAX_PROFILE_SECONDS)
            if self._profiling:
                await self._http_respond(
                    writer,
                    409,
                    json.dumps({"error": "a profile capture is already running"}),
                )
                return
            self._profiling = True
            try:
                text = await self._debug_profile_text(seconds)
            finally:
                self._profiling = False
            await self._http_respond(
                writer, 200, text, content_type="text/plain; charset=utf-8"
            )
            return
        if path == "/alerts":
            if method != "GET":
                await self._http_respond(
                    writer, 405, json.dumps({"error": "use GET"})
                )
                return
            await self._http_respond(writer, 200, self.alerts_json())
            return
        if path == "/debug/bundle":
            if method != "GET":
                await self._http_respond(
                    writer, 405, json.dumps({"error": "use GET"})
                )
                return
            # collect_fingerprint shells out to git; keep the loop responsive
            # by building the bundle on the executor.
            bundle = await self._loop.run_in_executor(
                self._executor, self.diagnostics_bundle
            )
            await self._http_respond(
                writer, 200, json.dumps(bundle, sort_keys=True, default=str)
            )
            return
        if path == "/metrics":
            if method != "GET":
                await self._http_respond(
                    writer, 405, json.dumps({"error": "use GET"})
                )
                return
            await self._http_respond(
                writer,
                200,
                self.metrics_prometheus(),
                content_type="text/plain; version=0.0.4; charset=utf-8",
            )
            return
        if path == "/healthz":
            if method != "GET":
                await self._http_respond(
                    writer, 405, json.dumps({"error": "use GET"})
                )
                return
            manager = self.snapshot_manager
            payload = {
                "status": "ok" if self._accepting else "draining",
                "snapshot_version": manager.version if manager is not None else None,
                "connections": self.num_connections,
                "queue_depth": self._pending,
            }
            await self._http_respond(writer, 200, json.dumps(payload, sort_keys=True))
            return
        if path == "/publish":
            if method != "POST":
                await self._http_respond(
                    writer, 405, json.dumps({"error": "use POST"})
                )
                return
            try:
                snapshot = await self.publish()
            except (ServingError, GraphError, IndexBuildError) as exc:
                await self._http_respond(
                    writer, 409, json.dumps({"error": str(exc)})
                )
                return
            await self._http_respond(
                writer,
                200,
                json.dumps(
                    {"published": True, "version": snapshot.version},
                    sort_keys=True,
                ),
            )
            return
        await self._http_respond(
            writer,
            404,
            json.dumps(
                {
                    "error": f"unknown path {path!r}",
                    "paths": [
                        "/metrics",
                        "/healthz",
                        "/publish",
                        "/alerts",
                        "/traces",
                        "/debug/threads",
                        "/debug/profile",
                        "/debug/bundle",
                    ],
                }
            ),
        )
