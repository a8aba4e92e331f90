"""Weighted graphs: pruned landmark labeling via pruned Dijkstra (Section 6).

The only change relative to the unweighted construction is that each labeling
pass runs Dijkstra's algorithm instead of a BFS, pruning a vertex when it is
*settled* (popped from the priority queue with its final distance) and the
existing index already certifies a distance no larger than the settled one.
Bit-parallel labels are not applicable to weighted graphs (the mask trick
relies on distances differing by at most one between a root and its
neighbours), exactly as the paper notes.

Distances here are ``float64`` throughout; the class also works on unweighted
graphs, where it degenerates to the BFS-based index with slightly more
overhead.
"""

from __future__ import annotations

import heapq
import time
from typing import Iterable, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.index import validate_vertex
from repro.core.labels import intersect_query
from repro.core.pruned import resolve_order
from repro.errors import IndexBuildError, IndexStateError
from repro.graph.csr import Graph

__all__ = ["WeightedLabelSet", "WeightedPrunedLandmarkLabeling"]


class WeightedLabelSet:
    """Frozen 2-hop labels with real-valued distances."""

    __slots__ = ("_indptr", "_hubs", "_dists", "_order")

    def __init__(
        self,
        indptr: np.ndarray,
        hubs: np.ndarray,
        dists: np.ndarray,
        order: np.ndarray,
    ) -> None:
        self._indptr = np.asarray(indptr, dtype=np.int64)
        self._hubs = np.asarray(hubs, dtype=np.int32)
        self._dists = np.asarray(dists, dtype=np.float64)
        self._order = np.asarray(order, dtype=np.int64)

    @property
    def num_vertices(self) -> int:
        """Number of vertices covered."""
        return self._indptr.shape[0] - 1

    @property
    def order(self) -> np.ndarray:
        """Vertex processing order (rank -> vertex id)."""
        return self._order

    def label_sizes(self) -> np.ndarray:
        """Number of label entries per vertex."""
        return np.diff(self._indptr)

    def average_label_size(self) -> float:
        """Average label entries per vertex."""
        if self.num_vertices == 0:
            return 0.0
        return float(self._hubs.shape[0]) / self.num_vertices

    def nbytes(self) -> int:
        """Approximate in-memory size in bytes."""
        return int(self._indptr.nbytes + self._hubs.nbytes + self._dists.nbytes)

    def vertex_label(self, vertex: int) -> Tuple[np.ndarray, np.ndarray]:
        """``(hub_ranks, distances)`` views for one vertex."""
        start, end = self._indptr[vertex], self._indptr[vertex + 1]
        return self._hubs[start:end], self._dists[start:end]

    def query(self, s: int, t: int) -> float:
        """Minimum ``d(s, w) + d(w, t)`` over common hubs (``inf`` if disjoint)."""
        return intersect_query(*self.vertex_label(s), *self.vertex_label(t))


class WeightedPrunedLandmarkLabeling:
    """Exact distance oracle for weighted (or unweighted) undirected graphs.

    Parameters
    ----------
    ordering:
        Vertex ordering strategy name; Degree remains a good default because
        hub quality depends mostly on topology, not on edge weights.
    seed:
        Seed for randomised orderings.

    Examples
    --------
    >>> from repro.generators import grid_graph
    >>> graph = grid_graph(8, 8, weighted=True, seed=3)
    >>> oracle = WeightedPrunedLandmarkLabeling().build(graph)
    >>> round(oracle.distance(0, 63), 6) > 0
    True
    """

    def __init__(self, *, ordering: str = "degree", seed: int = 0) -> None:
        self.ordering = ordering
        self.seed = seed
        self._labels: Optional[WeightedLabelSet] = None
        self._graph: Optional[Graph] = None
        self._build_seconds: float = 0.0

    # ------------------------------------------------------------------ #
    # Construction
    # ------------------------------------------------------------------ #

    def build(
        self, graph: Graph, *, order: Optional[Sequence[int]] = None
    ) -> "WeightedPrunedLandmarkLabeling":
        """Run a pruned Dijkstra from every vertex and freeze the labels."""
        if graph.directed:
            raise IndexBuildError(
                "WeightedPrunedLandmarkLabeling expects an undirected graph; "
                "use DirectedPrunedLandmarkLabeling for directed graphs"
            )
        order_array = resolve_order(graph, order, ordering=self.ordering, seed=self.seed)
        n = graph.num_vertices

        start_time = time.perf_counter()
        label_hubs: List[List[int]] = [[] for _ in range(n)]
        label_dists: List[List[float]] = [[] for _ in range(n)]

        indptr, adj = graph.indptr, graph.adjacency
        weights = graph.weights
        if weights is None:
            weights = np.ones(adj.shape[0], dtype=np.float64)

        # Temporary root-label array indexed by hub rank (the "T" array of
        # Section 4.5.1), reset entry-by-entry after every Dijkstra run.
        temp = np.full(n, np.inf, dtype=np.float64)

        for k in range(n):
            root = int(order_array[k])

            touched: List[int] = []
            for hub, dist in zip(label_hubs[root], label_dists[root]):
                temp[hub] = dist
                touched.append(hub)

            settled_dist = {}
            heap: List[Tuple[float, int]] = [(0.0, root)]
            while heap:
                d, u = heapq.heappop(heap)
                if u in settled_dist:
                    continue
                settled_dist[u] = d

                # Prune test against the current index (hubs of rank < k).
                hubs_u = label_hubs[u]
                dists_u = label_dists[u]
                pruned = False
                for i in range(len(hubs_u)):
                    if dists_u[i] + temp[hubs_u[i]] <= d + 1e-12:
                        pruned = True
                        break
                if pruned:
                    continue

                label_hubs[u].append(k)
                label_dists[u].append(d)

                start, end = indptr[u], indptr[u + 1]
                for idx in range(start, end):
                    v = int(adj[idx])
                    if v in settled_dist:
                        continue
                    heapq.heappush(heap, (d + float(weights[idx]), v))

            for hub in touched:
                temp[hub] = np.inf

        sizes = np.array([len(h) for h in label_hubs], dtype=np.int64)
        label_indptr = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(sizes, out=label_indptr[1:])
        flat_hubs = np.empty(int(label_indptr[-1]), dtype=np.int32)
        flat_dists = np.empty(int(label_indptr[-1]), dtype=np.float64)
        for v in range(n):
            start, end = label_indptr[v], label_indptr[v + 1]
            flat_hubs[start:end] = label_hubs[v]
            flat_dists[start:end] = label_dists[v]

        self._labels = WeightedLabelSet(
            label_indptr, flat_hubs, flat_dists, order_array
        )
        self._graph = graph
        self._build_seconds = time.perf_counter() - start_time
        return self

    # ------------------------------------------------------------------ #
    # Queries and introspection
    # ------------------------------------------------------------------ #

    @property
    def built(self) -> bool:
        """Whether the index has been built."""
        return self._labels is not None

    def _require_built(self) -> None:
        if not self.built:
            raise IndexStateError("the index has not been built yet; call build()")

    def distance(self, s: int, t: int) -> float:
        """Exact weighted shortest-path distance (``inf`` if disconnected).

        Raises :class:`~repro.errors.VertexError` for an id out of ``[0, n)``.
        """
        self._require_built()
        validate_vertex(s, self._labels.num_vertices)
        validate_vertex(t, self._labels.num_vertices)
        if s == t:
            return 0.0
        return self._labels.query(s, t)

    def distances(self, pairs: Iterable[Tuple[int, int]]) -> np.ndarray:
        """Distances for a batch of ``(s, t)`` pairs."""
        self._require_built()
        pairs = list(pairs)
        result = np.empty(len(pairs), dtype=np.float64)
        for i, (s, t) in enumerate(pairs):
            result[i] = self.distance(int(s), int(t))
        return result

    @property
    def label_set(self) -> WeightedLabelSet:
        """The frozen weighted labels."""
        self._require_built()
        return self._labels

    def average_label_size(self) -> float:
        """Average number of label entries per vertex."""
        self._require_built()
        return self._labels.average_label_size()

    def index_size_bytes(self) -> int:
        """Approximate in-memory index size in bytes."""
        self._require_built()
        return self._labels.nbytes()

    @property
    def build_seconds(self) -> float:
        """Wall-clock seconds spent in :meth:`build`."""
        return self._build_seconds
