"""Shortest-path reconstruction (Section 6, "Shortest-Path Queries").

The paper returns actual paths by storing, with every label entry, the
*parent* of the labelled vertex in the pruned BFS tree rooted at the entry's
hub.  Here the parents are derived, not stored: the path index is the plain
index (no bit-parallel labels) built by the shared pruned BFS, and a path
between ``s`` and ``t`` is reconstructed by

1. finding the hub ``w`` that minimises ``d(s, w) + d(w, t)`` with
   :meth:`~repro.core.labels.LabelSet.query_via` (lowest rank on ties), then
2. climbing from ``s`` to ``w`` and from ``t`` to ``w``: from a vertex with
   entry ``(w, d)``, step to its smallest-id neighbour with entry
   ``(w, d - 1)``.

The climb is well defined because a labelled vertex is always discovered from
a *labelled* (non-pruned) vertex one level closer to the hub, and entries for
hub ``w`` are only ever created by ``w``'s own BFS.  The neighbours holding
``(w, d - 1)`` are therefore exactly the BFS survivors one level up that reach
the vertex, and the smallest-id one is the parent the BFS discovered it from
(the frontier is expanded in increasing vertex id), so the paths are the ones
stored parent pointers would give.

Bit-parallel labels are intentionally not used by this class: a pair whose
minimum is realised only inside a bit-parallel label has no normal-label hub
to climb to.  Use :class:`~repro.core.index.PrunedLandmarkLabeling` when only
distances are needed and bit-parallel speed-ups are desired.
"""

from __future__ import annotations

from typing import List, Optional

from repro.core.index import PrunedLandmarkLabeling, validate_vertex
from repro.errors import IndexStateError

__all__ = ["PathPrunedLandmarkLabeling"]


class PathPrunedLandmarkLabeling(PrunedLandmarkLabeling):
    """Exact shortest-path (not just distance) oracle for undirected graphs.

    Every distance query is the plain index's; :meth:`shortest_path` adds the
    path itself.

    Examples
    --------
    >>> from repro.graph import Graph
    >>> graph = Graph(4, [(0, 1), (1, 2), (2, 3)])
    >>> oracle = PathPrunedLandmarkLabeling().build(graph)
    >>> oracle.shortest_path(0, 3)
    [0, 1, 2, 3]
    """

    def __init__(self, *, ordering: str = "degree", seed: int = 0) -> None:
        super().__init__(ordering=ordering, seed=seed)

    def _climb_to_hub(self, vertex: int, hub_rank: int) -> List[int]:
        """Vertices from ``vertex`` up to the hub (inclusive)."""
        keys = self.prepare_batch_kernel().keys
        stride = keys.dtype.type(self._labels.num_vertices)
        hub = keys.dtype.type(hub_rank)
        dists = self._labels.distances
        indptr, adjacency = self._graph.indptr, self._graph.adjacency
        chain = [vertex]
        distance = int(dists[keys.searchsorted(stride * keys.dtype.type(vertex) + hub)])
        while distance > 0:
            # Probe every neighbour's label for an entry (hub, distance - 1).
            neighbors = adjacency[indptr[chain[-1]]: indptr[chain[-1] + 1]]
            probe = neighbors.astype(keys.dtype) * stride + hub
            at = keys.searchsorted(probe)
            closer = neighbors[
                (keys.take(at, mode="clip") == probe) & (dists.take(at, mode="clip") == distance - 1)
            ]
            if not closer.shape[0]:
                raise IndexStateError(
                    f"vertex {chain[-1]} has no neighbour one step closer to hub "
                    f"rank {hub_rank}; the index is inconsistent"
                )
            chain.append(int(closer.min()))
            distance -= 1
        return chain

    def shortest_path(self, s: int, t: int) -> Optional[List[int]]:
        """One shortest path from ``s`` to ``t`` as a vertex list (``None`` if none).

        Raises :class:`~repro.errors.VertexError` for an id out of ``[0, n)``,
        as :meth:`distance` does.
        """
        self._require_built()
        validate_vertex(s, self._labels.num_vertices)
        validate_vertex(t, self._labels.num_vertices)
        if s == t:
            return [s]
        _, hub = self._labels.query_via(s, t)
        if hub is None:
            return None
        hub_rank = int(self._labels.rank[hub])
        from_s = self._climb_to_hub(s, hub_rank)   # s ... hub
        from_t = self._climb_to_hub(t, hub_rank)   # t ... hub
        # Join, dropping the duplicated hub in the middle.
        return from_s + from_t[-2::-1]

    @property
    def build_seconds(self) -> float:
        """Wall-clock seconds spent in the pruned-BFS phase of :meth:`build`."""
        return self.construction_stats.elapsed_seconds
