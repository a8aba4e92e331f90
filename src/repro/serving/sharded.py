"""Multi-process sharded query serving: the GIL bypass.

However fast :class:`~repro.core.query.BatchQueryKernel` gets, a single
Python process answers queries on one core — numpy releases the GIL only
inside individual vectorised calls, and the per-batch orchestration
serialises everything else.  This module shards query batches across a
persistent pool of *worker processes* instead:

* Every published index snapshot lives in a **named shared-memory
  generation** (:class:`~repro.core.storage.SharedMemoryBackend`, exported by
  :class:`~repro.serving.snapshot.SnapshotManager` or by this module for a
  static index).  Workers attach the generation *by name* and answer query
  shards against read-only views of the very same label arrays — no label
  data is ever pickled or copied per request; only the (tiny) vertex-id
  arrays and results cross the process boundary.
* :class:`ShardedQueryEngine` partitions each incoming batch across the
  pool, concatenates the shard results in order, and folds per-worker
  timings into :class:`~repro.serving.metrics.ServerMetrics`.  Small batches
  are answered inline by the snapshot's single-process engine — forking a
  few hundred pairs across processes costs more than it saves.
* Hot swap works exactly like the single-process path: a worker shard runs
  against the generation it was dispatched with, generations are retired
  refcounted (:class:`~repro.core.storage.SharedGeneration`), and a worker
  attaching a newer generation drops its mappings of the old one.
* The pool is **self-healing**: a worker dying (OOM kill, segfault, stray
  ``SIGKILL``) breaks a ``ProcessPoolExecutor`` permanently, so the engine
  catches :class:`~concurrent.futures.process.BrokenProcessPool` — from a
  query dispatch or from a :meth:`ShardedQueryEngine.ping` health probe —
  rebuilds the pool, and retries; fresh workers re-attach the current
  generation by name on their first shard.  Respawns are counted in
  :class:`~repro.serving.metrics.ServerMetrics` so the dashboard shows a
  flapping pool.

The engine is duck-type compatible with
:class:`~repro.serving.engine.BatchQueryEngine` (``query_batch`` /
``query`` / ``num_vertices`` / ``stats``), so :class:`~repro.serving.server.QueryServer`
and the benchmarks can use either interchangeably.
"""

from __future__ import annotations

import os
import threading
import time
from concurrent.futures import CancelledError, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from typing import Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.core.index import PrunedLandmarkLabeling, validate_vertex_ids
from repro.core.serialization import export_index_to_backend, index_from_backend
from repro.core.storage import SharedGeneration, SharedMemoryBackend
from repro.errors import ServingError
from repro.serving.engine import BatchQueryEngine, EngineStats
from repro.serving.metrics import ServerMetrics
from repro.serving.snapshot import IndexSnapshot, SnapshotManager
from repro.serving.tracing import Span, StructuredLogger

__all__ = ["ShardedQueryEngine", "default_worker_count"]


def default_worker_count() -> int:
    """Default pool size: one worker per available core."""
    return max(os.cpu_count() or 1, 1)


# ---------------------------------------------------------------------- #
# Worker-process side
# ---------------------------------------------------------------------- #

#: Per-worker attachment cache: the one generation this worker currently
#: serves.  Keyed access is by generation name; attaching a newer generation
#: drops the previous mapping (the parent has usually already unlinked its
#: names — the memory itself stays valid until this close).
_ATTACHED: Dict[str, object] = {}


def _attached_index(generation_name: str) -> PrunedLandmarkLabeling:
    """Return this worker's index for ``generation_name``, attaching on demand."""
    if _ATTACHED.get("name") == generation_name:
        return _ATTACHED["index"]
    backend = SharedMemoryBackend.attach(generation_name)
    index = index_from_backend(backend)
    previous = _ATTACHED.pop("backend", None)
    _ATTACHED.pop("index", None)
    _ATTACHED["name"] = generation_name
    _ATTACHED["index"] = index
    _ATTACHED["backend"] = backend
    if previous is not None:
        previous.close()
    return index


def _worker_query_shard(
    generation_name: str, sources: np.ndarray, targets: np.ndarray
) -> Tuple[int, float, np.ndarray]:
    """Answer one shard against the named generation; returns ``(pid, seconds, distances)``."""
    index = _attached_index(generation_name)
    start = time.perf_counter()
    result = index.distance_batch(sources, targets)
    return os.getpid(), time.perf_counter() - start, result


def _worker_warmup(delay: float) -> int:
    """Pool warm-up task: occupy a worker briefly so every process forks early.

    Forking all workers at engine construction (before the serving threads
    start) sidesteps fork-under-threads hazards and moves the process
    start-up cost out of the first request's latency.
    """
    time.sleep(delay)
    return os.getpid()


# ---------------------------------------------------------------------- #
# Parent side
# ---------------------------------------------------------------------- #


class ShardedQueryEngine:
    """Partition query batches across worker processes sharing one snapshot.

    Parameters
    ----------
    backend:
        Either a :class:`~repro.serving.snapshot.SnapshotManager` constructed
        with ``shared=True`` (hot-swap serving: every published generation is
        picked up automatically), or a built/loaded index or
        :class:`~repro.serving.engine.BatchQueryEngine` (static serving: the
        engine exports one generation itself).
    num_workers:
        Worker processes in the persistent pool (default: one per core).
    min_shard_size:
        Target pairs per worker shard; a batch is split into at most
        ``ceil(len / min_shard_size)`` shards so tiny batches are not
        scattered across the pool.
    local_threshold:
        Batches at or below this size skip the pool entirely and are
        answered by the snapshot's in-process engine.
    shard_timeout:
        Seconds to wait for any one shard before declaring the pool wedged.
    metrics:
        Optional :class:`~repro.serving.metrics.ServerMetrics`; per-worker
        shard timings are folded into it (``observe_shard``).
    logger:
        Optional :class:`~repro.serving.tracing.StructuredLogger`; pool
        respawns are emitted as ``worker_pool_respawn`` events.

    Use as a context manager or call :meth:`close` to shut the pool down and
    release engine-owned generations.
    """

    #: Duck-typed capability flag (see :class:`BatchQueryEngine`): the cache
    #: layer and batchers pass ``span_sink`` only to engines advertising it.
    accepts_span_sink = True

    def __init__(
        self,
        backend: Union[SnapshotManager, BatchQueryEngine, PrunedLandmarkLabeling],
        *,
        num_workers: Optional[int] = None,
        min_shard_size: int = 512,
        local_threshold: int = 64,
        shard_timeout: Optional[float] = 60.0,
        metrics: Optional[ServerMetrics] = None,
        logger: Optional[StructuredLogger] = None,
    ) -> None:
        self._num_workers = int(num_workers) if num_workers else default_worker_count()
        if self._num_workers < 1:
            raise ServingError("num_workers must be at least 1")
        self._min_shard_size = max(int(min_shard_size), 1)
        self._local_threshold = int(local_threshold)
        self._shard_timeout = shard_timeout
        self._metrics = metrics
        self._logger = logger
        self._stats = EngineStats()
        self._stats_lock = threading.Lock()
        self._worker_seconds: Dict[int, float] = {}
        self._closed = False
        self._respawn_lock = threading.Lock()
        self._num_respawns = 0

        self._manager: Optional[SnapshotManager] = None
        self._static_snapshot: Optional[IndexSnapshot] = None
        self._own_generation: Optional[SharedGeneration] = None
        if isinstance(backend, SnapshotManager):
            if not backend.shared:
                raise ServingError(
                    "ShardedQueryEngine needs a SnapshotManager constructed "
                    "with shared=True (its snapshots must live in named "
                    "shared memory for workers to attach)"
                )
            self._manager = backend
        else:
            engine = (
                backend
                if isinstance(backend, BatchQueryEngine)
                else BatchQueryEngine(backend)
            )
            shared = SharedMemoryBackend.create()
            try:
                export_index_to_backend(engine.index, shared, source="sharded engine")
            except BaseException:
                # A half-written export must not strand segments in /dev/shm.
                shared.unlink()
                raise
            self._own_generation = SharedGeneration(shared)
            self._static_snapshot = IndexSnapshot(
                engine=engine,
                version=1,
                source="static sharded engine",
                generation=self._own_generation,
            )

        try:
            self._pool = self._create_pool()
        except BaseException:
            # Pool creation failing (fork EAGAIN, memory pressure) must not
            # strand the generation this engine just exported.
            if self._own_generation is not None:
                self._own_generation.retire()
            raise

    def _create_pool(self) -> ProcessPoolExecutor:
        """Fork a fully warmed pool (see :func:`_worker_warmup`)."""
        pool = ProcessPoolExecutor(max_workers=self._num_workers)
        wait([pool.submit(_worker_warmup, 0.05) for _ in range(self._num_workers)])
        return pool

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #

    @property
    def snapshot_manager(self) -> Optional[SnapshotManager]:
        """The backing snapshot manager, when hot swap is enabled."""
        return self._manager

    @property
    def num_workers(self) -> int:
        """Size of the worker pool."""
        return self._num_workers

    @property
    def index(self) -> PrunedLandmarkLabeling:
        """The current snapshot's underlying index."""
        return self._current_snapshot().index

    @property
    def num_vertices(self) -> int:
        """Number of vertices served by the current snapshot."""
        return self._current_snapshot().engine.num_vertices

    @property
    def stats(self) -> EngineStats:
        """Cumulative batch accounting (live object)."""
        return self._stats

    def kernel_info(self) -> Dict[str, object]:
        """The batch kernel's key layout (the same in every worker)."""
        return self._current_snapshot().engine.kernel_info()

    @property
    def kernel_name(self) -> str:
        """The batch kernel's layout name (metrics label)."""
        return self._current_snapshot().engine.kernel_name

    def worker_seconds(self) -> Dict[int, float]:
        """Cumulative busy seconds per worker pid (copy)."""
        with self._stats_lock:
            return dict(self._worker_seconds)

    @property
    def num_respawns(self) -> int:
        """How many times the worker pool has been rebuilt after breaking."""
        with self._respawn_lock:
            return self._num_respawns

    @property
    def closed(self) -> bool:
        """Whether :meth:`close` has torn the engine down."""
        with self._respawn_lock:
            return self._closed

    def _current_snapshot(self) -> IndexSnapshot:
        if self._manager is not None:
            return self._manager.current
        assert self._static_snapshot is not None
        return self._static_snapshot

    # ------------------------------------------------------------------ #
    # Worker health
    # ------------------------------------------------------------------ #

    def _respawn_pool(self, broken: ProcessPoolExecutor) -> None:
        """Replace ``broken`` with a freshly forked pool (once per breakage).

        Concurrent callers may observe the same broken pool; the identity
        check under the lock makes sure only the first rebuilds it — the
        rest return immediately and retry on the replacement.  Fresh workers
        carry no attachment cache, so their first shard re-attaches the
        current generation by name (:func:`_attached_index`).
        """
        with self._respawn_lock:
            if self._pool is not broken or self._closed:
                return
            broken.shutdown(wait=False, cancel_futures=True)
            self._pool = self._create_pool()
            self._num_respawns += 1
            num_respawns = self._num_respawns
        if self._metrics is not None:
            self._metrics.observe_worker_respawn()
        if self._logger is not None:
            self._logger.event(
                "worker_pool_respawn",
                num_respawns=num_respawns,
                num_workers=self._num_workers,
            )

    def ping(self) -> List[int]:
        """Probe every pool worker; respawn the pool if it is broken.

        Dispatches one occupy-a-worker task per pool slot (the same trick as
        the construction warm-up, so the probes land on distinct workers) and
        returns the responding pids.  A dead worker surfaces as
        :class:`BrokenProcessPool`; the pool is rebuilt once and re-probed,
        so a successful return always describes a healthy pool.  Intended to
        be called periodically (the async front end does) as well as ad hoc.
        """
        if self.closed:
            raise ServingError("sharded engine has been closed")
        for attempt in (0, 1):
            # Optimistic unlocked pool grab: taking _respawn_lock here would
            # serialise every probe behind a pool rebuild; instead a stale
            # handle surfaces as BrokenProcessPool/RuntimeError and retries.
            pool = self._pool  # reprolint: disable=RL001
            try:
                futures = [
                    pool.submit(_worker_warmup, 0.02)
                    for _ in range(self._num_workers)
                ]
                return sorted(
                    {future.result(timeout=self._shard_timeout) for future in futures}
                )
            except BrokenProcessPool:
                if attempt:
                    raise ServingError(
                        "sharded worker pool broke again immediately after a "
                        "respawn"
                    ) from None
                self._respawn_pool(pool)
            except (RuntimeError, CancelledError):
                # A concurrent caller respawned the pool underneath this
                # probe (see query_batch); re-probe the replacement.  The
                # unlocked identity check is the optimistic-retry protocol.
                if pool is self._pool or attempt:  # reprolint: disable=RL001
                    raise
        raise AssertionError("unreachable")  # pragma: no cover

    # ------------------------------------------------------------------ #
    # Queries
    # ------------------------------------------------------------------ #

    def query(self, s: int, t: int) -> float:
        """Scalar convenience query (answered inline, not via the pool)."""
        return float(self.query_batch([s], [t])[0])

    def query_batch(
        self,
        sources: Sequence[int],
        targets: Sequence[int],
        *,
        span_sink: Optional[List[Span]] = None,
    ) -> np.ndarray:
        """Exact distances for aligned ``sources[i], targets[i]`` pairs.

        Bit-identical to the single-process engine: the batch is split into
        contiguous shards, each answered by a worker process against the
        current shared-memory generation, and re-concatenated in order.  A
        batch that lands on a broken pool (a worker died) respawns the pool
        and retries once on the fresh workers.

        When the caller passes a ``span_sink`` list, the worker-side shard
        timings come back stitched into it as one ``shard`` span per worker
        dispatch (attributes: worker pid, shard pair count) — or a single
        ``kernel`` span when the batch was answered inline — so a parent
        request trace shows exactly where a sharded batch spent its time.
        """
        if self.closed:
            raise ServingError("sharded engine has been closed")
        sources = np.atleast_1d(np.asarray(sources, dtype=np.int64))
        targets = np.atleast_1d(np.asarray(targets, dtype=np.int64))
        if sources.shape != targets.shape:
            raise ValueError("sources and targets must have the same length")
        start = time.perf_counter()
        num_pairs = int(sources.shape[0])

        for attempt in (0, 1):
            # Same optimistic-retry protocol as ping(): never serialise the
            # hot batch path behind _respawn_lock; a stale pool handle fails
            # fast and the loop retries on the replacement.
            pool = self._pool  # reprolint: disable=RL001
            snapshot, generation = self._acquire_snapshot()
            try:
                validate_vertex_ids(sources, snapshot.engine.num_vertices)
                validate_vertex_ids(targets, snapshot.engine.num_vertices)
                num_shards = min(
                    self._num_workers, -(-num_pairs // self._min_shard_size)
                )
                if num_pairs <= self._local_threshold or num_shards <= 1:
                    result = snapshot.engine.query_batch(
                        sources, targets, span_sink=span_sink
                    )
                    self._record(num_pairs, time.perf_counter() - start, [])
                    return result
                try:
                    futures = [
                        pool.submit(
                            _worker_query_shard, generation.name, shard_s, shard_t
                        )
                        for shard_s, shard_t in zip(
                            np.array_split(sources, num_shards),
                            np.array_split(targets, num_shards),
                        )
                    ]
                    shards = []
                    worker_timings = []
                    for future in futures:
                        pid, seconds, distances = future.result(
                            timeout=self._shard_timeout
                        )
                        worker_timings.append(
                            (pid, int(distances.shape[0]), seconds)
                        )
                        shards.append(distances)
                except BrokenProcessPool:
                    if attempt:
                        raise ServingError(
                            "sharded worker pool broke again immediately "
                            "after a respawn"
                        ) from None
                    self._respawn_pool(pool)
                    continue
                except (RuntimeError, CancelledError):
                    # Submitting to — or awaiting futures of — a pool a
                    # concurrent caller (another batch, a health ping) already
                    # shut down and respawned; retry on the replacement.  If
                    # the pool was not replaced, the error is genuine.  The
                    # unlocked identity check is the optimistic-retry protocol.
                    if pool is self._pool or attempt:  # reprolint: disable=RL001
                        raise
                    continue
            finally:
                generation.release()
            result = np.concatenate(shards)
            if span_sink is not None:
                for pid, shard_pairs, shard_seconds in worker_timings:
                    span_sink.append(
                        Span("shard", shard_seconds, worker=pid, pairs=shard_pairs)
                    )
            self._record(num_pairs, time.perf_counter() - start, worker_timings)
            return result
        raise AssertionError("unreachable")  # pragma: no cover

    def query_one_to_many(
        self,
        source: int,
        targets: Optional[Sequence[int]] = None,
        *,
        span_sink: Optional[List[Span]] = None,
    ) -> np.ndarray:
        """Distances from ``source`` to ``targets`` (all when ``None``).

        Answered inline on the parent-side engine: a one-to-many fan-out is a
        single kernel call whose work scales with the label scan, so carving
        it into worker shards would only pay the dispatch overhead twice.
        """
        if self.closed:
            raise ServingError("sharded engine has been closed")
        return self._current_snapshot().engine.query_one_to_many(
            source, targets, span_sink=span_sink
        )

    def _acquire_snapshot(self) -> Tuple[IndexSnapshot, SharedGeneration]:
        """Grab the current snapshot with its generation pinned for reading.

        A publisher may retire-and-unlink the generation between the
        snapshot read and the acquire; the swap installs the successor
        first, so re-reading ``current`` always terminates.
        """
        for _ in range(1024):
            snapshot = self._current_snapshot()
            generation = snapshot.generation
            if generation is None:
                raise ServingError(
                    "snapshot carries no shared-memory generation; construct "
                    "the SnapshotManager with shared=True"
                )
            if generation.acquire():
                return snapshot, generation
        raise ServingError(
            "could not pin a live snapshot generation"
        )  # pragma: no cover - would need a pathological publish storm

    def _record(self, num_pairs, seconds, worker_timings) -> None:
        with self._stats_lock:
            self._stats.observe(num_pairs, seconds)
            for pid, _, shard_seconds in worker_timings:
                self._worker_seconds[pid] = (
                    self._worker_seconds.get(pid, 0.0) + shard_seconds
                )
        if self._metrics is not None:
            for pid, shard_pairs, shard_seconds in worker_timings:
                self._metrics.observe_shard(pid, shard_pairs, shard_seconds)

    # ------------------------------------------------------------------ #
    # Lifecycle
    # ------------------------------------------------------------------ #

    def close(self) -> None:
        """Shut the pool down and release engine-owned shared memory.

        Generations owned by a backing :class:`SnapshotManager` are the
        manager's to retire (call its ``close``); this only tears down what
        the engine itself created.
        """
        # The lock serialises close against a concurrent respawn, so the pool
        # being shut down is always the live one.
        with self._respawn_lock:
            if self._closed:
                return
            self._closed = True
            pool = self._pool
        pool.shutdown(wait=True, cancel_futures=True)
        if self._own_generation is not None:
            self._own_generation.retire()

    def __enter__(self) -> "ShardedQueryEngine":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
