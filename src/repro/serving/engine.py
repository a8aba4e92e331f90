"""Batched query engine: the serving-path wrapper around a built index.

The paper's query algorithm is microsecond-scale in C++; under the Python
interpreter the same per-pair code is dominated by interpreter and numpy
dispatch overhead.  The engine recovers the lost throughput by answering many
``(s, t)`` pairs per call through the vectorised
:class:`~repro.core.query.BatchQueryKernel` (plus the batched bit-parallel
test), and it keeps per-batch latency/throughput accounting so the serving
layer can report honest QPS and tail-latency numbers.

The engine is *read only* and therefore trivially safe to share between
threads: it never mutates the underlying index, and its counters are updated
under a lock.  Writable state lives behind
:class:`~repro.serving.snapshot.SnapshotManager`, which publishes a fresh
engine per index version.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.index import PrunedLandmarkLabeling, validate_vertex_ids
from repro.serving.tracing import Span

__all__ = ["EngineStats", "BatchQueryEngine"]


@dataclass
class EngineStats:
    """Cumulative batch accounting for one engine."""

    num_batches: int = 0
    num_queries: int = 0
    #: Total time spent inside :meth:`BatchQueryEngine.query_batch`, seconds.
    total_seconds: float = 0.0
    #: Recent per-batch wall-clock latencies in seconds (bounded window).
    recent_batch_seconds: List[float] = field(default_factory=list, repr=False)

    @property
    def queries_per_second(self) -> float:
        """Average throughput over every batch so far."""
        if self.total_seconds <= 0.0:
            return 0.0
        return self.num_queries / self.total_seconds

    @property
    def average_batch_size(self) -> float:
        """Mean number of pairs per batch."""
        if self.num_batches == 0:
            return 0.0
        return self.num_queries / self.num_batches

    def observe(self, num_queries: int, seconds: float, *, window: int = 4096) -> None:
        """Record one batch and trim the recent-latency window to ``window``.

        Not thread safe on its own; callers that share stats across threads
        (the engine) hold their own lock around it.
        """
        self.num_batches += 1
        self.num_queries += num_queries
        self.total_seconds += seconds
        recent = self.recent_batch_seconds
        recent.append(seconds)
        if len(recent) > window:
            del recent[: len(recent) - window]

    def as_dict(self) -> Dict[str, float]:
        """Flat dictionary view for the metrics endpoint."""
        return {
            "num_batches": self.num_batches,
            "num_queries": self.num_queries,
            "total_seconds": self.total_seconds,
            "queries_per_second": self.queries_per_second,
            "average_batch_size": self.average_batch_size,
        }


class BatchQueryEngine:
    """Vectorised many-pairs-per-call front end over a built index.

    Parameters
    ----------
    index:
        A built (or loaded) :class:`~repro.core.index.PrunedLandmarkLabeling`.
    chunk_size:
        Pairs evaluated per vectorised pass; bounds temporary-array memory on
        very large batches without affecting results.
    stats_window:
        Number of recent per-batch latencies retained for percentile
        reporting.

    Examples
    --------
    >>> from repro import build_index
    >>> from repro.generators import barabasi_albert_graph
    >>> from repro.serving import BatchQueryEngine
    >>> graph = barabasi_albert_graph(500, 3, seed=1)
    >>> engine = BatchQueryEngine(build_index(graph))
    >>> engine.query_batch([0, 1, 2], [499, 498, 497]).shape
    (3,)
    """

    #: Duck-typed capability flag: callers (the cache layer, the batchers)
    #: check this instead of isinstance so engine wrappers stay decoupled.
    accepts_span_sink = True

    def __init__(
        self,
        index: PrunedLandmarkLabeling,
        *,
        chunk_size: int = 65536,
        stats_window: int = 4096,
    ) -> None:
        if not index.built:
            raise ValueError("BatchQueryEngine requires a built index")
        self._index = index
        # Pay the one-off kernel construction now, not on the first request.
        index.prepare_batch_kernel()
        self._chunk_size = int(chunk_size)
        self._stats_window = int(stats_window)
        self._stats = EngineStats()
        self._stats_lock = threading.Lock()

    @property
    def index(self) -> PrunedLandmarkLabeling:
        """The wrapped (read-only) index."""
        return self._index

    @property
    def num_vertices(self) -> int:
        """Number of vertices served by the engine."""
        return self._index.label_set.num_vertices

    @property
    def stats(self) -> EngineStats:
        """Cumulative batch accounting (live object)."""
        return self._stats

    def kernel_info(self) -> Dict[str, object]:
        """The batch kernel's key layout for this engine's index.

        Keys: ``name`` (``"narrow"`` for ``uint32`` keys, else ``"wide"``)
        and ``narrow``.  Surfaced as a structured log event at serve time and
        as the ``/metrics`` kernel info gauge.
        """
        name = self.kernel_name
        return {"name": name, "narrow": name == "narrow"}

    @property
    def kernel_name(self) -> str:
        """The batch kernel's layout name, the label of kernel-op counters."""
        return self._index.prepare_batch_kernel().backend_name

    def query(self, s: int, t: int) -> float:
        """Scalar convenience query (same result as ``index.distance``)."""
        return float(self.query_batch([s], [t])[0])

    def query_batch(
        self,
        sources: Sequence[int],
        targets: Sequence[int],
        *,
        span_sink: Optional[List[Span]] = None,
    ) -> np.ndarray:
        """Exact distances for aligned ``sources[i], targets[i]`` pairs.

        Bit-identical to a loop of ``index.distance`` calls, but evaluated in
        a handful of vectorised passes.  Each call is timed and recorded in
        :attr:`stats`; when the caller passes a ``span_sink`` list, a
        ``kernel`` tracing span for the evaluation is appended to it.
        """
        start = time.perf_counter()
        result = self._index.distance_batch(
            sources, targets, chunk_size=self._chunk_size
        )
        elapsed = time.perf_counter() - start
        with self._stats_lock:
            self._stats.observe(
                int(result.shape[0]), elapsed, window=self._stats_window
            )
        if span_sink is not None:
            span_sink.append(Span("kernel", elapsed, pairs=int(result.shape[0])))
        return result

    def query_pairs(self, pairs: Iterable[Tuple[int, int]]) -> np.ndarray:
        """Batch query over an iterable of ``(s, t)`` pairs."""
        pair_list = list(pairs)
        if not pair_list:
            return np.empty(0, dtype=np.float64)
        pair_array = np.asarray(pair_list, dtype=np.int64)
        return self.query_batch(pair_array[:, 0], pair_array[:, 1])

    def query_one_to_many(
        self,
        source: int,
        targets: Optional[Sequence[int]] = None,
        *,
        span_sink: Optional[List[Span]] = None,
    ) -> np.ndarray:
        """Exact distances from ``source`` to ``targets`` (all when ``None``).

        The kernel layer's one-to-many entry point, previously reachable only
        through the core API: one scatter of the source label amortises the
        evaluation across every target.  Validated, timed and recorded like
        :meth:`query_batch` (each evaluated target counts as one query);
        results are bit-identical to per-pair :meth:`query` calls.
        """
        start = time.perf_counter()
        result = self._index.distances_from(source, targets)
        elapsed = time.perf_counter() - start
        with self._stats_lock:
            self._stats.observe(
                int(result.shape[0]), elapsed, window=self._stats_window
            )
        if span_sink is not None:
            span_sink.append(Span("kernel", elapsed, pairs=int(result.shape[0])))
        return result
