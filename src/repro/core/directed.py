"""Directed graphs: pruned landmark labeling with IN/OUT labels (Section 6).

For a directed graph the oracle stores two labels per vertex:

* ``L_OUT(v)`` — pairs ``(u, d(v, u))``: hubs reachable *from* ``v``.
* ``L_IN(v)``  — pairs ``(u, d(u, v))``: hubs that can reach ``v``.

The distance from ``s`` to ``t`` is the minimum of ``d(s, u) + d(u, t)`` over
hubs ``u`` common to ``L_OUT(s)`` and ``L_IN(t)``.  Each root performs two
pruned BFSs, one along out-edges (filling ``L_IN`` of reached vertices) and
one along in-edges (filling ``L_OUT``), with the prune test of each direction
using the opposite label side — mirroring Algorithm 1 exactly.
"""

from __future__ import annotations

import time
from typing import Iterable, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.labels import INF_DISTANCE, LabelAccumulator, LabelSet, intersect_query
from repro.errors import IndexBuildError, IndexStateError
from repro.graph.csr import Graph
from repro.graph.ordering import compute_order
from repro.graph.traversal import frontier_neighbors

__all__ = ["DirectedPrunedLandmarkLabeling"]


class DirectedPrunedLandmarkLabeling:
    """Exact distance oracle for directed, unweighted graphs.

    Examples
    --------
    >>> from repro.graph import Graph
    >>> graph = Graph(3, [(0, 1), (1, 2)], directed=True)
    >>> oracle = DirectedPrunedLandmarkLabeling().build(graph)
    >>> oracle.distance(0, 2)
    2.0
    >>> oracle.distance(2, 0)
    inf
    """

    def __init__(self, *, ordering: str = "degree", seed: int = 0) -> None:
        self.ordering = ordering
        self.seed = seed
        self._labels_out: Optional[LabelSet] = None
        self._labels_in: Optional[LabelSet] = None
        self._graph: Optional[Graph] = None
        self._order: Optional[np.ndarray] = None
        self._build_seconds: float = 0.0

    # ------------------------------------------------------------------ #
    # Construction
    # ------------------------------------------------------------------ #

    def build(
        self, graph: Graph, *, order: Optional[Sequence[int]] = None
    ) -> "DirectedPrunedLandmarkLabeling":
        """Build IN and OUT labels with one pair of pruned BFSs per vertex."""
        if not graph.directed:
            raise IndexBuildError(
                "DirectedPrunedLandmarkLabeling expects a directed graph; use "
                "PrunedLandmarkLabeling for undirected graphs"
            )
        n = graph.num_vertices
        if order is not None:
            order_array = np.asarray(order, dtype=np.int64)
            if order_array.shape[0] != n or np.any(
                np.sort(order_array) != np.arange(n)
            ):
                raise IndexBuildError("order must be a permutation of all vertices")
        else:
            order_array = compute_order(graph, self.ordering, seed=self.seed)

        start_time = time.perf_counter()
        # labels_out[v]: hubs u with d(v, u); labels_in[v]: hubs u with d(u, v).
        labels_out = LabelAccumulator(n)
        labels_in = LabelAccumulator(n)
        temp = np.full(n, int(INF_DISTANCE), dtype=np.int64)

        for k in range(n):
            root = int(order_array[k])
            # Forward pruned BFS: computes d(root, u), extends L_IN(u).
            # Prune test: min over w in L_OUT(root) ∩ L_IN(u) of
            # d(root, w) + d(w, u) <= depth.
            self._pruned_bfs_one_direction(
                graph,
                root,
                k,
                source_labels=labels_out,
                target_labels=labels_in,
                temp=temp,
                reverse=False,
            )
            # Backward pruned BFS: computes d(u, root), extends L_OUT(u).
            self._pruned_bfs_one_direction(
                graph,
                root,
                k,
                source_labels=labels_in,
                target_labels=labels_out,
                temp=temp,
                reverse=True,
            )

        self._labels_out = labels_out.freeze(order_array)
        self._labels_in = labels_in.freeze(order_array)
        self._graph = graph
        self._order = order_array
        self._build_seconds = time.perf_counter() - start_time
        return self

    @staticmethod
    def _pruned_bfs_one_direction(
        graph: Graph,
        root: int,
        rank: int,
        *,
        source_labels: LabelAccumulator,
        target_labels: LabelAccumulator,
        temp: np.ndarray,
        reverse: bool,
    ) -> None:
        """One pruned BFS from ``root`` along out-edges (or in-edges if ``reverse``).

        ``source_labels`` is the label side of the root used in the prune test
        (``L_OUT(root)`` for a forward BFS); ``target_labels`` is the side that
        reached vertices are appended to (``L_IN`` for a forward BFS).
        """
        n = graph.num_vertices
        indptr = graph.rev_indptr if reverse else graph.indptr
        adj = graph.rev_adjacency if reverse else graph.adjacency

        touched: List[int] = []
        for hub, dist in source_labels.entries(root):
            temp[hub] = dist
            touched.append(hub)

        visited = np.full(n, -1, dtype=np.int32)
        visited[root] = 0
        frontier = np.array([root], dtype=np.int64)
        depth = 0
        while frontier.size:
            survivors: List[int] = []
            for u in frontier:
                u = int(u)
                hubs_u = target_labels.hub_ranks(u)
                dists_u = target_labels.distances(u)
                pruned = False
                for i in range(len(hubs_u)):
                    if dists_u[i] + temp[hubs_u[i]] <= depth:
                        pruned = True
                        break
                if pruned:
                    continue
                target_labels.append(u, rank, depth)
                survivors.append(u)
            if not survivors:
                break
            survivor_array = np.asarray(survivors, dtype=np.int64)
            neighbors = frontier_neighbors(indptr, adj, survivor_array)
            fresh = neighbors[visited[neighbors] < 0]
            if fresh.size == 0:
                break
            frontier = np.unique(fresh).astype(np.int64)
            visited[frontier] = depth + 1
            depth += 1

        for hub in touched:
            temp[hub] = int(INF_DISTANCE)

    # ------------------------------------------------------------------ #
    # Queries and introspection
    # ------------------------------------------------------------------ #

    @property
    def built(self) -> bool:
        """Whether the index has been built."""
        return self._labels_out is not None

    def _require_built(self) -> None:
        if not self.built:
            raise IndexStateError("the index has not been built yet; call build()")

    def distance(self, s: int, t: int) -> float:
        """Exact directed distance from ``s`` to ``t`` (``inf`` if unreachable)."""
        self._require_built()
        if s == t:
            return 0.0
        return intersect_query(
            *self._labels_out.vertex_label(s), *self._labels_in.vertex_label(t)
        )

    def distances(self, pairs: Iterable[Tuple[int, int]]) -> np.ndarray:
        """Distances for a batch of ``(s, t)`` pairs."""
        self._require_built()
        pairs = list(pairs)
        result = np.empty(len(pairs), dtype=np.float64)
        for i, (s, t) in enumerate(pairs):
            result[i] = self.distance(int(s), int(t))
        return result

    @property
    def out_labels(self) -> LabelSet:
        """``L_OUT`` labels (hubs reachable from each vertex)."""
        self._require_built()
        return self._labels_out

    @property
    def in_labels(self) -> LabelSet:
        """``L_IN`` labels (hubs that reach each vertex)."""
        self._require_built()
        return self._labels_in

    def average_label_size(self) -> float:
        """Average number of label entries per vertex (IN plus OUT)."""
        self._require_built()
        return (
            self._labels_out.average_label_size()
            + self._labels_in.average_label_size()
        )

    def index_size_bytes(self) -> int:
        """Approximate in-memory index size in bytes."""
        self._require_built()
        return self._labels_out.nbytes() + self._labels_in.nbytes()

    @property
    def build_seconds(self) -> float:
        """Wall-clock seconds spent in :meth:`build`."""
        return self._build_seconds
