"""Blocking query API over the asyncio front end, plus stdio and file replays.

:class:`QueryServer` is a thin blocking facade: it runs one
:class:`~repro.serving.aio.AsyncQueryFrontend` (no listeners) on a private
daemon event-loop thread.  Threads calling :meth:`~QueryServer.submit`,
:meth:`~QueryServer.distance` or :meth:`~QueryServer.query_one_to_many` go
through the same admission control, coalescing, hot-pair cache, tracing and
metrics as network clients of ``repro-pll serve --port`` — the repository has
one request pipeline.

* :func:`serve_stdio` speaks the line protocol (``s t`` or ``s,t`` per query;
  ``add a b`` / ``remove a b`` / ``publish`` to mutate and hot-swap;
  ``STATS`` / ``STATS JSON``, ``TRACES``, ``ALERTS``; ``QUIT``) over text
  streams by feeding each line to the front end's handler, so stdio, TCP and
  the HTTP admin plane share one command surface.
* :func:`replay_mutations` drives the same mutation vocabulary from a file
  (the ``--mutations`` serve option) through the front end's one mutation
  dispatch.
* :func:`warm_cache` replays a query log into the hot-pair cache before a
  listener starts accepting traffic (the ``--warm`` serve option).
"""

from __future__ import annotations

import asyncio
import concurrent.futures
import sys
import threading
import time
from typing import IO, Iterable, Optional, Sequence, Tuple, Union

import numpy as np

from repro.errors import ServingError
from repro.serving.aio import NOT_ACCEPTING, AsyncQueryFrontend
from repro.serving.alerts import HealthMonitor, ShadowCanary
from repro.serving.cache import LRUCache, cached_query_batch
from repro.serving.engine import BatchQueryEngine
from repro.serving.metrics import ServerMetrics
from repro.serving.protocol import (
    OP_ADD,
    OP_PUBLISH,
    OP_REMOVE,
    format_error,
    parse_mutation,
    parse_pair,
)
from repro.serving.snapshot import SnapshotManager
from repro.serving.tracing import StructuredLogger, TraceRecorder

__all__ = [
    "QueryRequest",
    "QueryServer",
    "read_pairs_file",
    "replay_mutations",
    "serve_stdio",
    "warm_cache",
]


class QueryRequest:
    """One admitted request; :meth:`wait` blocks until its distances are ready."""

    __slots__ = ("_future",)

    def __init__(self) -> None:
        self._future: "concurrent.futures.Future[np.ndarray]" = (
            concurrent.futures.Future()
        )

    @property
    def done(self) -> bool:
        """Whether the request has been completed (successfully or not)."""
        return self._future.done()

    def wait(self, timeout: Optional[float] = None) -> np.ndarray:
        """Block until the request completes; return distances or re-raise its error."""
        try:
            return self._future.result(timeout)
        except TimeoutError:
            if self._future.done():  # the request itself failed with a timeout
                raise
            raise TimeoutError("query request did not complete in time") from None

    def _resolve(self, pending: "asyncio.Future[np.ndarray]") -> None:
        """Copy the front end's outcome across threads (runs on the loop)."""
        if pending.cancelled():
            self._future.cancel()
        elif pending.exception() is not None:
            self._future.set_exception(pending.exception())
        else:
            self._future.set_result(pending.result())


class QueryServer:
    """Blocking facade over an :class:`~repro.serving.aio.AsyncQueryFrontend`.

    Parameters
    ----------
    backend:
        Either a :class:`~repro.serving.snapshot.SnapshotManager` (queries are
        answered against whatever snapshot is current when a batch starts —
        the hot-swap path) or a bare
        :class:`~repro.serving.engine.BatchQueryEngine` (static index).
    cache:
        Optional hot-pair :class:`~repro.serving.cache.LRUCache`; hits skip
        the engine entirely.
    max_batch_size:
        Maximum pairs coalesced into one engine call.
    batch_timeout:
        Seconds the batcher waits for more requests before dispatching a
        partial batch (the latency/throughput knob).
    max_pending:
        Admission-control bound on admitted, unfinished requests.
    tracer:
        :class:`~repro.serving.tracing.TraceRecorder` collecting per-request
        traces (default: a fresh recorder).  Pass a
        :class:`~repro.serving.tracing.NullTraceRecorder` to switch tracing
        off entirely.
    logger:
        Optional :class:`~repro.serving.tracing.StructuredLogger` for
        lifecycle events (``server_start`` / ``server_stop``).

    Use as a context manager (``with QueryServer(engine) as server: ...``) or
    call :meth:`start` / :meth:`stop` explicitly.  Mutations and metrics work
    before :meth:`start`; queries need the running loop.
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
        self._frontend = AsyncQueryFrontend(
            backend,
            cache=cache,
            max_batch_size=max_batch_size,
            batch_timeout=batch_timeout,
            max_pending=max_pending,
            metrics=metrics,
            tracer=tracer,
        )
        self.cache = self._frontend.cache
        self.metrics = self._frontend.metrics
        self.tracer = self._frontend.tracer
        self.logger = logger
        # Guards _loop: a call scheduled while it is set is queued ahead of
        # the loop's stop, so it always runs and its caller never hangs.
        self._lock = threading.Lock()
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._thread: Optional[threading.Thread] = None

    # ------------------------------------------------------------------ #
    # Lifecycle
    # ------------------------------------------------------------------ #

    def start(self) -> "QueryServer":
        """Start the event-loop thread and the front end on it (idempotent)."""
        with self._lock:
            if self._loop is not None:
                return self
            loop = asyncio.new_event_loop()
            self._thread = threading.Thread(
                target=loop.run_forever, name="repro-pll-query-loop", daemon=True
            )
            self._thread.start()
            self._loop = loop
        self._run(self._frontend.start)
        if self.logger is not None:
            frontend = self._frontend
            self.logger.event(
                "server_start",
                max_batch_size=frontend.max_batch_size,
                batch_timeout=frontend.batch_timeout,
                max_pending=frontend.max_pending,
            )
        return self

    def stop(self) -> None:
        """Drain and stop: admitted requests finish, later submissions are rejected."""
        with self._lock:
            loop, self._loop = self._loop, None
            thread = self._thread
        if loop is None or thread is None:
            return
        try:
            asyncio.run_coroutine_threadsafe(self._frontend.stop(), loop).result()
        finally:
            loop.call_soon_threadsafe(loop.stop)
            thread.join(timeout=5.0)
            loop.close()
        if self.logger is not None:
            self.logger.event("server_stop", num_queries=self.metrics.num_queries)

    def __enter__(self) -> "QueryServer":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop()

    @property
    def running(self) -> bool:
        """Whether the event-loop thread is serving."""
        with self._lock:
            return self._loop is not None

    def _run(self, coroutine_function, *args):
        """Await ``coroutine_function(*args)`` on the loop thread; block for it.

        Raises :class:`~repro.errors.ServingError` when the server is not
        running, and otherwise whatever the coroutine raised.
        """
        with self._lock:
            if self._loop is None:
                raise ServingError(NOT_ACCEPTING)
            future = asyncio.run_coroutine_threadsafe(
                coroutine_function(*args), self._loop
            )
        return future.result()

    # ------------------------------------------------------------------ #
    # Client API
    # ------------------------------------------------------------------ #

    @property
    def snapshot_manager(self) -> Optional[SnapshotManager]:
        """The backing snapshot manager, when hot swap is enabled."""
        return self._frontend.snapshot_manager

    @property
    def health(self) -> Optional[HealthMonitor]:
        """Caller-owned health engine whose alerts fold into the metrics."""
        return self._frontend.health

    @health.setter
    def health(self, monitor: Optional[HealthMonitor]) -> None:
        self._frontend.health = monitor

    @property
    def shadow(self) -> Optional[ShadowCanary]:
        """Caller-owned shadow canary re-verifying sampled served batches."""
        return self._frontend.shadow

    @shadow.setter
    def shadow(self, canary: Optional[ShadowCanary]) -> None:
        self._frontend.shadow = canary

    async def _admit(self, sources, targets, request: QueryRequest) -> None:
        self._frontend.submit(sources, targets).add_done_callback(request._resolve)

    def submit(
        self, sources: Sequence[int], targets: Sequence[int]
    ) -> QueryRequest:
        """Admit one request of aligned pairs; returns without waiting for it.

        Admission runs on the loop thread and its verdict comes back before
        this returns, so every error below is raised here, synchronously.

        Raises
        ------
        AdmissionError
            When ``max_pending`` requests are already admitted.
        ServingError
            When the server is not running.
        VertexError
            When a vertex id is out of range.  Validated at submission, so
            one malformed request can never fail the unrelated requests it
            would have been batched with.
        ValueError
            When ``sources`` and ``targets`` differ in length.
        """
        request = QueryRequest()
        self._run(self._admit, sources, targets, request)
        return request

    def submit_pairs(self, pairs: Iterable[Tuple[int, int]]) -> QueryRequest:
        """Admit one request built from ``(s, t)`` tuples."""
        pair_array = np.asarray(list(pairs), dtype=np.int64).reshape(-1, 2)
        return self.submit(pair_array[:, 0], pair_array[:, 1])

    def distance(self, s: int, t: int, *, timeout: Optional[float] = 30.0) -> float:
        """Synchronous scalar query (submit one pair and wait)."""
        return float(self.submit([s], [t]).wait(timeout)[0])

    def distances(
        self,
        pairs: Iterable[Tuple[int, int]],
        *,
        timeout: Optional[float] = 30.0,
    ) -> np.ndarray:
        """Synchronous batch query."""
        return self.submit_pairs(pairs).wait(timeout)

    def query_one_to_many(
        self, source: int, targets: Optional[Sequence[int]] = None
    ) -> np.ndarray:
        """Distances from ``source`` to ``targets`` (all vertices when ``None``).

        One engine fan-out outside the pair batcher, admitted against
        ``max_pending`` like a pair request; see
        :meth:`AsyncQueryFrontend.query_one_to_many`.
        """
        return self._run(self._frontend.query_one_to_many, source, targets)

    def metrics_snapshot(self) -> dict:
        """Serving statistics (see :meth:`AsyncQueryFrontend.metrics_snapshot`)."""
        return self._frontend.metrics_snapshot()

    def metrics_json(self) -> str:
        """Single-line JSON metrics (the ``stats json`` wire reply)."""
        return self._frontend.metrics_json()

    def traces_json(self, *, limit: Optional[int] = 32) -> str:
        """Single-line JSON trace dump (the ``TRACES`` wire reply)."""
        return self._frontend.traces_json(limit=limit)

    def alerts_json(self) -> str:
        """Single-line JSON health report (the ``ALERTS`` wire reply)."""
        return self._frontend.alerts_json()

    # ------------------------------------------------------------------ #
    # Mutations (hot-swap write path), applied on the calling thread
    # ------------------------------------------------------------------ #

    def insert_edge(self, a: int, b: int) -> None:
        """Apply one edge insertion to the backing shadow index (not yet published)."""
        self._frontend._require_manager().insert_edge(a, b)

    def remove_edge(self, a: int, b: int) -> None:
        """Apply one edge deletion to the backing shadow index (not yet published)."""
        self._frontend._require_manager().remove_edge(a, b)

    def publish(self):
        """Publish pending mutations as a new snapshot; readers swap atomically."""
        return self._frontend._require_manager().publish()

    def apply_mutation(
        self, op: str, endpoints: Optional[Tuple[int, int]] = None
    ) -> str:
        """Apply one parsed mutation (``add`` / ``remove`` / ``publish``).

        Returns the one-line acknowledgement the wire protocol replies with.
        """
        return self._frontend._apply_mutation_sync(op, endpoints)


# ---------------------------------------------------------------------- #
# Line protocol and replays
# ---------------------------------------------------------------------- #


def replay_mutations(
    server: Union[QueryServer, AsyncQueryFrontend], lines: Iterable[str]
) -> dict:
    """Replay a mixed insert/delete stream against a server's shadow index.

    ``server`` is a :class:`QueryServer` or an
    :class:`~repro.serving.aio.AsyncQueryFrontend`; neither needs to be
    started.  ``lines`` holds one mutation per line in the shared protocol
    vocabulary (``add a b``, ``remove a b``, ``publish``); blank lines and
    ``#`` comments are skipped.  If mutations remain unpublished after the
    last line, a final publish makes them visible — a replayed file always
    leaves the serving snapshot caught up with the stream.

    Returns a counter dict (``added`` / ``removed`` / ``published``).

    Raises
    ------
    ValueError
        On an unparsable line (prefixed with its 1-based line number).
    ServingError
        When the server has no writable snapshot-manager backend.
    """
    frontend = server._frontend if isinstance(server, QueryServer) else server
    counts = {"added": 0, "removed": 0, "published": 0}
    for line_number, raw in enumerate(lines, start=1):
        stripped = raw.strip()
        if not stripped or stripped.startswith("#"):
            continue
        try:
            op, endpoints = parse_mutation(stripped)
        except ValueError as exc:
            raise ValueError(f"mutations line {line_number}: {exc}") from None
        frontend._apply_mutation_sync(op, endpoints)
        if op == OP_ADD:
            counts["added"] += 1
        elif op == OP_REMOVE:
            counts["removed"] += 1
        else:
            counts["published"] += 1
    manager = frontend.snapshot_manager
    if manager is not None and manager.pending_updates > 0:
        frontend._apply_mutation_sync(OP_PUBLISH, None)
        counts["published"] += 1
    return counts


def read_pairs_file(path) -> np.ndarray:
    """Read a query-pair file (one ``s t`` / ``s,t`` pair per line) into an array.

    Blank lines and ``#`` comments are skipped — the format is the natural
    dump of a query log.  Returns an ``(n, 2)`` int64 array.

    Raises
    ------
    ValueError
        On an unparsable line (prefixed with its 1-based line number).
    OSError
        When the file cannot be read.
    """
    pairs = []
    with open(path, "r", encoding="utf-8") as handle:
        for line_number, raw in enumerate(handle, start=1):
            stripped = raw.strip()
            if not stripped or stripped.startswith("#"):
                continue
            try:
                pairs.append(parse_pair(stripped))
            except ValueError as exc:
                raise ValueError(f"pairs line {line_number}: {exc}") from None
    return np.asarray(pairs, dtype=np.int64).reshape(-1, 2)


def warm_cache(engine, cache: LRUCache, pairs, *, batch_size: int = 8192) -> dict:
    """Replay query pairs through ``engine`` to populate the hot-pair ``cache``.

    Run before a listener starts accepting connections (the serve ``--warm``
    option), so the first real clients hit a warm cache instead of paying the
    cold misses themselves.  The replay goes through the same
    probe-compute-store path as live traffic: duplicated pairs in the log hit
    the cache, so the returned ``hit_rate`` is the rate a workload shaped
    like the log can expect (and the warm hits/misses are counted in
    ``cache.stats``, which keeps the serving metrics honest about how the
    cache got warm).

    ``engine`` is anything with ``query_batch``, such as a
    :class:`~repro.serving.engine.BatchQueryEngine`.  Returns a summary
    dict: ``pairs``, ``hits``, ``misses``, ``hit_rate``, ``cached`` (entries
    now resident) and ``seconds``.
    """
    pair_array = np.asarray(pairs, dtype=np.int64).reshape(-1, 2)
    start = time.perf_counter()
    misses_before = cache.stats.misses
    for offset in range(0, pair_array.shape[0], int(batch_size)):
        chunk = pair_array[offset: offset + int(batch_size)]
        cached_query_batch(engine, cache, chunk[:, 0], chunk[:, 1])
    num_pairs = int(pair_array.shape[0])
    hits = num_pairs - (cache.stats.misses - misses_before)
    return {
        "pairs": num_pairs,
        "hits": hits,
        "misses": num_pairs - hits,
        "hit_rate": hits / num_pairs if num_pairs else 0.0,
        "cached": len(cache),
        "seconds": time.perf_counter() - start,
    }


def serve_stdio(
    server: QueryServer,
    in_stream: Optional[IO[str]] = None,
    out_stream: Optional[IO[str]] = None,
) -> int:
    """Serve the line protocol over text streams until EOF or ``QUIT``.

    Each line goes through the front end's protocol handler on the server's
    loop; a server that is not running answers every line with an error
    line.  Returns the number of protocol lines handled.  Used by
    ``repro-pll serve`` when no ``--port`` is given, and directly testable
    with ``io.StringIO``.
    """
    in_stream = in_stream if in_stream is not None else sys.stdin
    out_stream = out_stream if out_stream is not None else sys.stdout
    handled = 0
    for line in in_stream:
        try:
            reply = server._run(server._frontend._handle_line, line)
        except ServingError as exc:
            reply = format_error(exc)
        if reply is None:
            break
        handled += 1
        if reply:
            print(reply, file=out_stream, flush=True)
    return handled
