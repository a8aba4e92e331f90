"""Shortest-path reconstruction (Section 6, "Shortest-Path Queries").

To return actual paths instead of just distances, each label entry carries one
extra field: the *parent* of the labelled vertex in the pruned BFS tree rooted
at the entry's hub.  A path between ``s`` and ``t`` is reconstructed by

1. finding the hub ``w`` that minimises ``d(s, w) + d(w, t)`` (the same merge
   join used for distance queries), then
2. walking parent pointers from ``s`` up to ``w`` and from ``t`` up to ``w``.

The walk is well defined because a labelled vertex is always discovered from a
*labelled* (non-pruned) vertex one level closer to the hub, so every vertex on
the walk has an entry for ``w`` as well.

Bit-parallel labels are intentionally not used by this class: a pair whose
minimum is realised only inside a bit-parallel label has no parent pointers to
follow.  Use :class:`~repro.core.index.PrunedLandmarkLabeling` when only
distances are needed and bit-parallel speed-ups are desired.
"""

from __future__ import annotations

import time
from typing import Iterable, List, Optional, Sequence, Tuple

import numpy as np

from repro.errors import IndexBuildError, IndexStateError
from repro.graph.csr import Graph
from repro.graph.ordering import compute_order
from repro.graph.traversal import frontier_edges

__all__ = ["PathPrunedLandmarkLabeling"]


class PathPrunedLandmarkLabeling:
    """Exact shortest-path (not just distance) oracle for undirected graphs.

    Examples
    --------
    >>> from repro.graph import Graph
    >>> graph = Graph(4, [(0, 1), (1, 2), (2, 3)])
    >>> oracle = PathPrunedLandmarkLabeling().build(graph)
    >>> oracle.shortest_path(0, 3)
    [0, 1, 2, 3]
    """

    def __init__(self, *, ordering: str = "degree", seed: int = 0) -> None:
        self.ordering = ordering
        self.seed = seed
        self._graph: Optional[Graph] = None
        self._order: Optional[np.ndarray] = None
        # Per-vertex parallel lists: hub rank, distance, parent vertex.
        self._hubs: Optional[List[List[int]]] = None
        self._dists: Optional[List[List[int]]] = None
        self._parents: Optional[List[List[int]]] = None
        self._build_seconds: float = 0.0

    # ------------------------------------------------------------------ #
    # Construction
    # ------------------------------------------------------------------ #

    def build(
        self, graph: Graph, *, order: Optional[Sequence[int]] = None
    ) -> "PathPrunedLandmarkLabeling":
        """Run pruned BFSs recording parent pointers along with distances."""
        if graph.directed:
            raise IndexBuildError(
                "PathPrunedLandmarkLabeling expects an undirected graph"
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
        hubs: List[List[int]] = [[] for _ in range(n)]
        dists: List[List[int]] = [[] for _ in range(n)]
        parents: List[List[int]] = [[] for _ in range(n)]
        temp = np.full(n, np.iinfo(np.int64).max // 4, dtype=np.int64)
        infinity = np.iinfo(np.int64).max // 4

        indptr, adj = graph.indptr, graph.adjacency

        for k in range(n):
            root = int(order_array[k])
            touched: List[int] = []
            for hub, dist in zip(hubs[root], dists[root]):
                temp[hub] = dist
                touched.append(hub)

            visited = np.full(n, -1, dtype=np.int32)
            visited[root] = 0
            # parent_of[v]: predecessor of v (toward the root) recorded at discovery.
            parent_of = np.full(n, -1, dtype=np.int64)
            frontier = np.array([root], dtype=np.int64)
            depth = 0
            while frontier.size:
                survivors: List[int] = []
                for u in frontier:
                    u = int(u)
                    hubs_u, dists_u = hubs[u], dists[u]
                    pruned = False
                    for i in range(len(hubs_u)):
                        if dists_u[i] + temp[hubs_u[i]] <= depth:
                            pruned = True
                            break
                    if pruned:
                        continue
                    hubs[u].append(k)
                    dists[u].append(depth)
                    parents[u].append(int(parent_of[u]) if depth > 0 else -1)
                    survivors.append(u)
                if not survivors:
                    break
                survivor_array = np.asarray(survivors, dtype=np.int64)
                origins, neighbors = frontier_edges(indptr, adj, survivor_array)
                unseen = visited[neighbors] < 0
                neighbors, origins = neighbors[unseen], origins[unseen]
                if neighbors.size == 0:
                    break
                fresh, first_idx = np.unique(neighbors, return_index=True)
                visited[fresh] = depth + 1
                parent_of[fresh] = origins[first_idx]
                frontier = fresh.astype(np.int64)
                depth += 1

            for hub in touched:
                temp[hub] = infinity

        self._graph = graph
        self._order = order_array
        self._hubs = hubs
        self._dists = dists
        self._parents = parents
        self._build_seconds = time.perf_counter() - start_time
        return self

    # ------------------------------------------------------------------ #
    # Queries
    # ------------------------------------------------------------------ #

    @property
    def built(self) -> bool:
        """Whether the index has been built."""
        return self._hubs is not None

    def _require_built(self) -> None:
        if not self.built:
            raise IndexStateError("the index has not been built yet; call build()")

    def _entry_for_hub(self, vertex: int, hub_rank: int) -> Tuple[int, int]:
        """(distance, parent) of ``vertex``'s entry for ``hub_rank``."""
        hubs = self._hubs[vertex]
        # Labels are rank sorted, so a binary search keeps lookups O(log L).
        lo, hi = 0, len(hubs)
        while lo < hi:
            mid = (lo + hi) // 2
            if hubs[mid] < hub_rank:
                lo = mid + 1
            else:
                hi = mid
        if lo >= len(hubs) or hubs[lo] != hub_rank:
            raise IndexStateError(
                f"vertex {vertex} has no label entry for hub rank {hub_rank}; "
                "the index is inconsistent"
            )
        return self._dists[vertex][lo], self._parents[vertex][lo]

    def _best_hub(self, s: int, t: int) -> Tuple[float, Optional[int]]:
        """Minimum distance and the hub rank realising it."""
        s_hubs, s_dists = self._hubs[s], self._dists[s]
        t_hubs, t_dists = self._hubs[t], self._dists[t]
        best = float("inf")
        best_hub: Optional[int] = None
        i, j = 0, 0
        while i < len(s_hubs) and j < len(t_hubs):
            hub_s, hub_t = s_hubs[i], t_hubs[j]
            if hub_s == hub_t:
                candidate = s_dists[i] + t_dists[j]
                if candidate < best:
                    best = candidate
                    best_hub = hub_s
                i += 1
                j += 1
            elif hub_s < hub_t:
                i += 1
            else:
                j += 1
        return best, best_hub

    def distance(self, s: int, t: int) -> float:
        """Exact shortest-path distance (``inf`` if disconnected)."""
        self._require_built()
        if s == t:
            return 0.0
        best, _ = self._best_hub(s, t)
        return best

    def distances(self, pairs: Iterable[Tuple[int, int]]) -> np.ndarray:
        """Distances for a batch of ``(s, t)`` pairs."""
        self._require_built()
        pairs = list(pairs)
        result = np.empty(len(pairs), dtype=np.float64)
        for i, (s, t) in enumerate(pairs):
            result[i] = self.distance(int(s), int(t))
        return result

    def _climb_to_hub(self, vertex: int, hub_rank: int) -> List[int]:
        """Vertices from ``vertex`` up to the hub (inclusive), following parents."""
        chain = [vertex]
        current = vertex
        distance, parent = self._entry_for_hub(current, hub_rank)
        while distance > 0:
            current = parent
            chain.append(current)
            distance, parent = self._entry_for_hub(current, hub_rank)
        return chain

    def shortest_path(self, s: int, t: int) -> Optional[List[int]]:
        """One shortest path from ``s`` to ``t`` as a vertex list (``None`` if none)."""
        self._require_built()
        if s == t:
            return [s]
        best, best_hub = self._best_hub(s, t)
        if best_hub is None or not np.isfinite(best):
            return None
        from_s = self._climb_to_hub(s, best_hub)   # s ... hub
        from_t = self._climb_to_hub(t, best_hub)   # t ... hub
        # Join, dropping the duplicated hub in the middle.
        return from_s + from_t[-2::-1]

    def average_label_size(self) -> float:
        """Average number of label entries per vertex."""
        self._require_built()
        n = len(self._hubs)
        if n == 0:
            return 0.0
        return sum(len(h) for h in self._hubs) / n

    @property
    def build_seconds(self) -> float:
        """Wall-clock seconds spent in :meth:`build`."""
        return self._build_seconds
