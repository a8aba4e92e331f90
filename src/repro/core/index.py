"""Public facade: the :class:`PrunedLandmarkLabeling` distance oracle.

This is the class most users interact with.  It bundles the three ingredients
of the paper — vertex ordering (Section 4.4), optional bit-parallel labels
(Section 5) and pruned BFS labeling (Section 4.2) — behind a scikit-learn-like
``build`` / ``distance`` API:

>>> from repro import PrunedLandmarkLabeling
>>> from repro.generators import barabasi_albert_graph
>>> graph = barabasi_albert_graph(1000, 3, seed=1)
>>> index = PrunedLandmarkLabeling(num_bit_parallel_roots=4).build(graph)
>>> index.distance(0, 999)  # exact shortest-path distance  # doctest: +SKIP
3.0
"""

from __future__ import annotations

from typing import Iterable, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.bitparallel import BitParallelLabels, build_bit_parallel_labels
from repro.core.labels import LabelSet, merge_labels
from repro.core.pruned import ConstructionStats, build_pruned_labels, resolve_order
from repro.core.query import BatchQueryKernel
from repro.errors import IndexStateError, VertexError
from repro.graph.csr import Graph

__all__ = ["PrunedLandmarkLabeling", "build_index", "validate_vertex", "validate_vertex_ids"]


def validate_vertex(vertex: int, num_vertices: int) -> None:
    """Raise :class:`~repro.errors.VertexError` if ``vertex`` is out of ``[0, n)``.

    The scalar check every oracle's ``distance`` runs before its ``s == t``
    shortcut.  Negative ids in particular must not fall through to numpy's
    end-relative indexing, which would silently answer for vertex
    ``n + id``; ids beyond ``n`` would surface as a raw ``IndexError``.
    """
    if not (0 <= vertex < num_vertices):
        raise VertexError(vertex, num_vertices)


def validate_vertex_ids(endpoints: np.ndarray, num_vertices: int) -> None:
    """Raise :class:`~repro.errors.VertexError` if any id is out of ``[0, n)``.

    Shared by the batch query path and the serving layer's request admission
    so both reject the same inputs with the same error.
    """
    bad = (endpoints < 0) | (endpoints >= num_vertices)
    if bad.any():
        raise VertexError(int(endpoints[bad][0]), num_vertices)


class PrunedLandmarkLabeling:
    """Exact 2-hop distance oracle built by pruned landmark labeling.

    Parameters
    ----------
    ordering:
        Vertex ordering strategy name (``"degree"``, ``"closeness"``,
        ``"random"``, ...) or an explicit order array.  Degree is the paper's
        default and almost always the right choice.
    num_bit_parallel_roots:
        Number ``t`` of bit-parallel BFSs performed before the pruned phase
        (Section 5.4).  ``0`` disables bit-parallel labels.  The paper uses 16
        for small graphs and 64 for large ones.
    seed:
        Seed forwarded to randomised ordering strategies.
    collect_stats:
        Whether to record per-BFS construction counters (needed by the
        Figure 3 experiments; small overhead otherwise).

    Notes
    -----
    The oracle is *exact*: after :meth:`build`, :meth:`distance` returns the
    true shortest-path hop distance for every pair of vertices (``inf`` for
    disconnected pairs).  Query time is ``O(|L(s)| + |L(t)| + t)``.
    """

    def __init__(
        self,
        *,
        ordering: str = "degree",
        num_bit_parallel_roots: int = 0,
        seed: int = 0,
        collect_stats: bool = False,
    ) -> None:
        self.ordering = ordering
        self.num_bit_parallel_roots = int(num_bit_parallel_roots)
        self.seed = seed
        self.collect_stats = collect_stats

        self._graph: Optional[Graph] = None
        self._labels: Optional[LabelSet] = None
        self._bit_parallel: Optional[BitParallelLabels] = None
        self._order: Optional[np.ndarray] = None
        self._stats: Optional[ConstructionStats] = None
        self._batch_kernel: Optional[BatchQueryKernel] = None

    # ------------------------------------------------------------------ #
    # Construction
    # ------------------------------------------------------------------ #

    def build(
        self, graph: Graph, *, order: Optional[Sequence[int]] = None
    ) -> "PrunedLandmarkLabeling":
        """Build the index for ``graph`` and return ``self``.

        Parameters
        ----------
        graph:
            Undirected, unweighted graph (see :class:`repro.core.weighted` and
            :class:`repro.core.directed` for the other variants).
        order:
            Optional explicit vertex order overriding the ``ordering``
            strategy; must be a permutation of all vertices.
        """
        order_array = resolve_order(graph, order, ordering=self.ordering, seed=self.seed)
        bit_parallel = build_bit_parallel_labels(
            graph, order_array, self.num_bit_parallel_roots
        )
        labels, stats = build_pruned_labels(
            graph,
            order_array,
            bit_parallel=bit_parallel,
            collect_stats=self.collect_stats,
        )
        self._graph = graph
        self._labels = labels
        self._bit_parallel = bit_parallel
        self._order = order_array
        self._stats = stats
        self._batch_kernel = None
        return self

    @property
    def built(self) -> bool:
        """Whether :meth:`build` has completed."""
        return self._labels is not None

    def _require_built(self) -> None:
        if not self.built:
            raise IndexStateError("the index has not been built yet; call build()")

    # ------------------------------------------------------------------ #
    # Queries
    # ------------------------------------------------------------------ #

    def distance(self, s: int, t: int) -> float:
        """Exact shortest-path distance between ``s`` and ``t`` (``inf`` if disconnected).

        Raises
        ------
        VertexError
            If either id is out of ``[0, n)`` (see :func:`validate_vertex`).
        """
        self._require_built()
        validate_vertex(s, self._labels.num_vertices)
        validate_vertex(t, self._labels.num_vertices)
        if s == t:
            return 0.0
        best = self._labels.query(s, t)
        if self._bit_parallel is not None and not self._bit_parallel.empty():
            best = min(best, self._bit_parallel.query(s, t))
        return best

    def distances(self, pairs: Iterable[Tuple[int, int]]) -> np.ndarray:
        """Distances for a batch of ``(s, t)`` pairs.

        Routed through :meth:`distance_batch`, so large batches run at
        vectorised speed rather than one interpreted merge join per pair.
        """
        self._require_built()
        pairs = list(pairs)
        if not pairs:
            return np.empty(0, dtype=np.float64)
        pair_array = np.asarray(pairs, dtype=np.int64)
        return self.distance_batch(pair_array[:, 0], pair_array[:, 1])

    def distance_batch(
        self,
        sources: Sequence[int],
        targets: Sequence[int],
        *,
        chunk_size: int = 65536,
    ) -> np.ndarray:
        """Exact distances for aligned ``sources[i], targets[i]`` pairs, vectorised.

        The serving-path entry point: many independent pairs are answered per
        call through :class:`~repro.core.query.BatchQueryKernel` (and the
        batched bit-parallel test), avoiding all per-pair Python overhead.
        Results are bit-identical to calling :meth:`distance` in a loop.

        Parameters
        ----------
        sources, targets:
            Aligned vertex-id arrays of equal length.
        chunk_size:
            Pairs processed per vectorised pass; bounds the temporary-array
            memory for very large batches.

        Raises
        ------
        VertexError
            If any vertex id is out of range.
        """
        self._require_built()
        source_array = np.atleast_1d(np.asarray(sources, dtype=np.int64))
        target_array = np.atleast_1d(np.asarray(targets, dtype=np.int64))
        if source_array.shape != target_array.shape:
            raise ValueError("sources and targets must have the same length")
        num_vertices = self._labels.num_vertices
        validate_vertex_ids(source_array, num_vertices)
        validate_vertex_ids(target_array, num_vertices)

        kernel = self.prepare_batch_kernel()

        result = np.empty(source_array.shape[0], dtype=np.float64)
        use_bp = self._bit_parallel is not None and not self._bit_parallel.empty()
        for start in range(0, source_array.shape[0], max(chunk_size, 1)):
            stop = start + max(chunk_size, 1)
            chunk_s = source_array[start:stop]
            chunk_t = target_array[start:stop]
            chunk = kernel.query_pairs(chunk_s, chunk_t)
            if use_bp:
                chunk = np.minimum(chunk, self._bit_parallel.query_pairs(chunk_s, chunk_t))
            chunk[chunk_s == chunk_t] = 0.0
            result[start:stop] = chunk
        return result

    def prepare_batch_kernel(self) -> BatchQueryKernel:
        """Build (or return) the precomputed batch-query kernel.

        Construction is O(total label entries); the serving layer calls this
        eagerly so the first request batch does not pay for it.
        """
        self._require_built()
        if self._batch_kernel is None:
            self._batch_kernel = BatchQueryKernel(self._labels)
        return self._batch_kernel

    def query(self, s: int, t: int) -> float:
        """Alias of :meth:`distance` matching the paper's terminology."""
        return self.distance(s, t)

    def distances_from(
        self, source: int, targets: Optional[Sequence[int]] = None
    ) -> np.ndarray:
        """Exact distances from one source to many targets, vectorised.

        When a single vertex is compared against hundreds of candidates (the
        socially-sensitive search and context-ranking workloads of the paper's
        introduction) this is substantially faster than calling
        :meth:`distance` in a loop: the source label is materialised once and
        every target label is evaluated with flat numpy operations.

        Parameters
        ----------
        source:
            The fixed endpoint.
        targets:
            Target vertices; ``None`` means all vertices, in id order.

        Returns
        -------
        numpy.ndarray
            ``float64`` exact distances (``inf`` for disconnected pairs).

        Raises
        ------
        VertexError
            If the source or any target is out of ``[0, n)``.
        """
        self._require_built()
        num_vertices = self._labels.num_vertices
        validate_vertex(source, num_vertices)
        if targets is not None:
            targets = np.asarray(list(targets), dtype=np.int64)
            validate_vertex_ids(targets, num_vertices)
        # The kernel applies no source-zeroing; that happens below, after
        # the bit-parallel fold.
        normal = self.prepare_batch_kernel().query_one_to_many(source, targets)
        if self._bit_parallel is not None and not self._bit_parallel.empty():
            bp = self._bit_parallel.query_one_to_many(source, targets)
            normal = np.minimum(normal, bp)
        if targets is None:
            normal[source] = 0.0
        else:
            normal[targets == source] = 0.0
        return normal

    def top_k_closest(
        self, source: int, candidates: Sequence[int], k: int
    ) -> List[Tuple[int, float]]:
        """The ``k`` candidates closest to ``source``, as ``(vertex, distance)`` pairs.

        Ties are broken by vertex id; unreachable candidates sort last and are
        included only if fewer than ``k`` reachable candidates exist.  Raises
        :class:`~repro.errors.VertexError` for an out-of-range id, as
        :meth:`distances_from` does.
        """
        self._require_built()
        candidate_array = np.asarray(list(candidates), dtype=np.int64)
        distances = self.distances_from(source, candidate_array)
        order = np.lexsort((candidate_array, distances))
        chosen = order[: max(k, 0)]
        return [(int(candidate_array[i]), float(distances[i])) for i in chosen]

    def connected(self, s: int, t: int) -> bool:
        """Whether a path exists between ``s`` and ``t``."""
        return np.isfinite(self.distance(s, t))

    def covering_rank(self, s: int, t: int) -> Optional[int]:
        """Number of pruned BFSs after which the pair ``(s, t)`` became covered.

        A pair is covered after ``k`` BFSs when the labels restricted to hubs
        of rank below ``k`` already report the exact distance (the quantity
        plotted in Figure 4 of the paper).  Returns ``None`` for disconnected
        pairs, and ``0`` for ``s == t``.

        Only meaningful for indexes built without bit-parallel labels, because
        pairs covered by the bit-parallel phase never enter the normal labels.
        """
        self._require_built()
        if s == t:
            return 0
        labels = self._labels
        hubs, sums = merge_labels(*labels.vertex_label(s), *labels.vertex_label(t))
        if not sums.shape[0]:
            return None
        # Hubs come rank-ascending, so argmin is the lowest-rank exact hub.
        return int(hubs[sums.argmin()]) + 1

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #

    @property
    def graph(self) -> Graph:
        """The graph the index was built on."""
        self._require_built()
        return self._graph

    @property
    def label_set(self) -> LabelSet:
        """The normal (non-bit-parallel) labels."""
        self._require_built()
        return self._labels

    @property
    def bit_parallel_labels(self) -> BitParallelLabels:
        """The bit-parallel labels (possibly empty)."""
        self._require_built()
        return self._bit_parallel

    @property
    def order(self) -> np.ndarray:
        """The vertex processing order used during construction."""
        self._require_built()
        return self._order

    @property
    def construction_stats(self) -> ConstructionStats:
        """Per-BFS construction counters (populated when ``collect_stats``)."""
        self._require_built()
        return self._stats

    def average_label_size(self) -> float:
        """Average number of normal label entries per vertex (paper's LN)."""
        self._require_built()
        return self._labels.average_label_size()

    def index_size_bytes(self) -> int:
        """Approximate in-memory index size (normal plus bit-parallel labels)."""
        self._require_built()
        total = self._labels.nbytes()
        if self._bit_parallel is not None:
            total += self._bit_parallel.nbytes()
        return total

    def label_of(self, vertex: int) -> List[Tuple[int, int]]:
        """Label entries of one vertex as ``(hub_vertex, distance)`` pairs."""
        self._require_built()
        return self._labels.vertex_label_as_vertices(vertex)


def build_index(graph: Graph, **kwargs) -> PrunedLandmarkLabeling:
    """One-call convenience constructor: ``build_index(graph, ordering="degree")``."""
    return PrunedLandmarkLabeling(**kwargs).build(graph)
