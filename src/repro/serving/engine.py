"""Batched query engine: the serving-path wrapper around a built index.

The paper's query algorithm is microsecond-scale in C++; under the Python
interpreter the same per-pair code is dominated by interpreter and numpy
dispatch overhead.  The engine recovers the lost throughput by answering many
``(s, t)`` pairs per call through the vectorised
:class:`~repro.core.query.BatchQueryKernel` (plus the batched bit-parallel
test).  It keeps no books of its own: the serving front end records each
finished batch once, in :class:`~repro.serving.metrics.ServerMetrics`.

The engine is *read only* and therefore trivially safe to share between
threads: it never mutates the underlying index and holds no mutable state.
Writable state lives behind
:class:`~repro.serving.snapshot.SnapshotManager`, which publishes a fresh
engine per index version.
"""

from __future__ import annotations

import time
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.core.index import PrunedLandmarkLabeling
from repro.serving.tracing import Span

__all__ = ["BatchQueryEngine"]


class BatchQueryEngine:
    """Vectorised many-pairs-per-call front end over a built index.

    Parameters
    ----------
    index:
        A built (or loaded) :class:`~repro.core.index.PrunedLandmarkLabeling`.

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

    def __init__(self, index: PrunedLandmarkLabeling) -> None:
        if not index.built:
            raise ValueError("BatchQueryEngine requires a built index")
        self._index = index
        # Pay the one-off kernel construction now, not on the first request.
        index.prepare_batch_kernel()

    @property
    def index(self) -> PrunedLandmarkLabeling:
        """The wrapped (read-only) index."""
        return self._index

    @property
    def num_vertices(self) -> int:
        """Number of vertices served by the engine."""
        return self._index.label_set.num_vertices

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
        """The batch kernel's layout name (``"narrow"`` or ``"wide"``)."""
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
        a handful of vectorised passes.  When the caller passes a
        ``span_sink`` list, a ``kernel`` tracing span for the evaluation is
        appended to it.
        """
        start = time.perf_counter()
        result = self._index.distance_batch(sources, targets)
        elapsed = time.perf_counter() - start
        if span_sink is not None:
            span_sink.append(Span("kernel", elapsed, pairs=int(result.shape[0])))
        return result

    def query_one_to_many(
        self,
        source: int,
        targets: Optional[Sequence[int]] = None,
        *,
        span_sink: Optional[List[Span]] = None,
    ) -> np.ndarray:
        """Exact distances from ``source`` to ``targets`` (all when ``None``).

        The kernel layer's one-to-many entry point: one scatter of the source
        label amortises the evaluation across every target.  Validated and
        traced like :meth:`query_batch`; results are bit-identical to
        per-pair :meth:`query` calls.
        """
        start = time.perf_counter()
        result = self._index.distances_from(source, targets)
        elapsed = time.perf_counter() - start
        if span_sink is not None:
            span_sink.append(Span("kernel", elapsed, pairs=int(result.shape[0])))
        return result
