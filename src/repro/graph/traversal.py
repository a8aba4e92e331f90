"""Graph traversals: BFS, multi-source BFS, bidirectional BFS and Dijkstra.

These routines are the measurement baseline in the paper ("BFS" column of
Table 3) and the building blocks of several other components (closeness
sampling for vertex ordering, distance-distribution statistics for Figure 2,
the APSP test oracle).  The breadth-first searches are frontier-based and
vectorised with numpy so that the Python overhead is paid per *level* rather
than per *edge*, which is what makes the pure-Python reproduction tractable.
"""

from __future__ import annotations

import heapq
from typing import Iterable, Optional, Sequence, Tuple

import numpy as np

from repro.errors import GraphError
from repro.graph.csr import Graph

__all__ = [
    "UNREACHABLE",
    "bfs_distances",
    "bfs_tree",
    "multi_source_bfs",
    "bidirectional_bfs_distance",
    "dijkstra_distances",
    "dijkstra_tree",
    "bfs_distance",
    "eccentricity",
    "frontier_neighbors",
    "frontier_edges",
]

#: Sentinel distance for unreachable vertices in integer distance arrays.
UNREACHABLE = -1


def _frontier_slots(
    indptr: np.ndarray, frontier: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """Index into the adjacency array of every frontier edge, plus the
    per-vertex edge counts."""
    starts = indptr[frontier]
    counts = indptr[frontier + 1] - starts
    total = int(counts.sum())
    # For each output slot, compute its index into ``adj``:
    #   base offset of its frontier vertex + position within that vertex's list.
    base = np.repeat(starts, counts)
    within = np.arange(total) - np.repeat(np.cumsum(counts) - counts, counts)
    return base + within, counts


def frontier_neighbors(
    indptr: np.ndarray, adj: np.ndarray, frontier: np.ndarray
) -> np.ndarray:
    """All neighbours of the frontier vertices, concatenated (with duplicates)."""
    slots, _ = _frontier_slots(indptr, frontier)
    return adj[slots]


def frontier_edges(
    indptr: np.ndarray, adj: np.ndarray, frontier: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """All ``(origin, neighbour)`` pairs with origin in the frontier."""
    slots, counts = _frontier_slots(indptr, frontier)
    return np.repeat(frontier, counts), adj[slots]


def bfs_distances(
    graph: Graph, source: int, *, reverse: bool = False
) -> np.ndarray:
    """Hop distances from ``source`` to every vertex.

    Parameters
    ----------
    graph:
        Input graph (edge weights, if any, are ignored — every edge counts 1).
    source:
        Root vertex.
    reverse:
        For directed graphs, traverse incoming edges instead of outgoing ones
        (i.e. compute distances *to* ``source``).

    Returns
    -------
    numpy.ndarray
        ``int32`` array of length ``n``; unreachable vertices hold
        :data:`UNREACHABLE`.
    """
    n = graph.num_vertices
    if source < 0 or source >= n:
        raise GraphError(f"source {source} out of range for {n} vertices")
    indptr = graph.rev_indptr if reverse else graph.indptr
    adj = graph.rev_adjacency if reverse else graph.adjacency

    dist = np.full(n, UNREACHABLE, dtype=np.int32)
    dist[source] = 0
    frontier = np.array([source], dtype=np.int64)
    level = 0
    while frontier.size:
        level += 1
        neighbors = frontier_neighbors(indptr, adj, frontier)
        if neighbors.size == 0:
            break
        fresh = neighbors[dist[neighbors] == UNREACHABLE]
        if fresh.size == 0:
            break
        frontier = np.unique(fresh).astype(np.int64)
        dist[frontier] = level
    return dist


def bfs_tree(
    graph: Graph, source: int, *, reverse: bool = False
) -> Tuple[np.ndarray, np.ndarray]:
    """BFS distances and parent pointers.

    Returns
    -------
    (dist, parent):
        ``parent[v]`` is the predecessor of ``v`` on a shortest path from the
        source (``-1`` for the source itself and for unreachable vertices).
    """
    n = graph.num_vertices
    if source < 0 or source >= n:
        raise GraphError(f"source {source} out of range for {n} vertices")
    indptr = graph.rev_indptr if reverse else graph.indptr
    adj = graph.rev_adjacency if reverse else graph.adjacency

    dist = np.full(n, UNREACHABLE, dtype=np.int32)
    parent = np.full(n, -1, dtype=np.int64)
    dist[source] = 0
    frontier = np.array([source], dtype=np.int64)
    level = 0
    while frontier.size:
        level += 1
        origins, neighbors = frontier_edges(indptr, adj, frontier)
        unseen = dist[neighbors] == UNREACHABLE
        neighbors = neighbors[unseen]
        origins = origins[unseen]
        if neighbors.size == 0:
            break
        # Keep the first occurrence of each newly discovered vertex so that the
        # parent pointer is deterministic (lowest-id frontier vertex wins).
        fresh, first_idx = np.unique(neighbors, return_index=True)
        dist[fresh] = level
        parent[fresh] = origins[first_idx]
        frontier = fresh.astype(np.int64)
    return dist, parent


def multi_source_bfs(
    graph: Graph, sources: Sequence[int], *, reverse: bool = False
) -> np.ndarray:
    """Distance from the *nearest* of several sources to every vertex."""
    n = graph.num_vertices
    source_array = np.asarray(list(sources), dtype=np.int64)
    if source_array.size == 0:
        return np.full(n, UNREACHABLE, dtype=np.int32)
    if source_array.min() < 0 or source_array.max() >= n:
        raise GraphError("multi_source_bfs: a source vertex is out of range")
    indptr = graph.rev_indptr if reverse else graph.indptr
    adj = graph.rev_adjacency if reverse else graph.adjacency

    dist = np.full(n, UNREACHABLE, dtype=np.int32)
    frontier = np.unique(source_array)
    dist[frontier] = 0
    level = 0
    while frontier.size:
        level += 1
        neighbors = frontier_neighbors(indptr, adj, frontier)
        if neighbors.size == 0:
            break
        fresh = neighbors[dist[neighbors] == UNREACHABLE]
        if fresh.size == 0:
            break
        frontier = np.unique(fresh).astype(np.int64)
        dist[frontier] = level
    return dist


def bfs_distance(graph: Graph, source: int, target: int) -> float:
    """Distance between one pair of vertices by plain BFS (inf if unreachable)."""
    dist = bfs_distances(graph, source)
    d = dist[target]
    return float("inf") if d == UNREACHABLE else float(d)


def bidirectional_bfs_distance(graph: Graph, source: int, target: int) -> float:
    """Distance between one pair by alternating BFS from both endpoints.

    This is the realistic online baseline for distance queries on undirected
    graphs: it expands the smaller frontier each round, meeting in the middle.
    For directed graphs the forward search uses out-edges and the backward
    search uses in-edges.

    Returns
    -------
    float
        The exact hop distance, or ``inf`` if the vertices are disconnected.
    """
    n = graph.num_vertices
    if source < 0 or source >= n or target < 0 or target >= n:
        raise GraphError("bidirectional_bfs_distance: endpoint out of range")
    if source == target:
        return 0.0

    dist_fwd = np.full(n, UNREACHABLE, dtype=np.int32)
    dist_bwd = np.full(n, UNREACHABLE, dtype=np.int32)
    dist_fwd[source] = 0
    dist_bwd[target] = 0
    frontier_fwd = np.array([source], dtype=np.int64)
    frontier_bwd = np.array([target], dtype=np.int64)
    best = np.inf

    while frontier_fwd.size and frontier_bwd.size:
        # Expand the cheaper side (by total adjacency volume).
        fwd_volume = int(
            (graph.indptr[frontier_fwd + 1] - graph.indptr[frontier_fwd]).sum()
        )
        bwd_volume = int(
            (graph.rev_indptr[frontier_bwd + 1] - graph.rev_indptr[frontier_bwd]).sum()
        )
        expand_forward = fwd_volume <= bwd_volume
        if expand_forward:
            indptr, adj = graph.indptr, graph.adjacency
            dist_here, dist_there = dist_fwd, dist_bwd
            frontier = frontier_fwd
        else:
            indptr, adj = graph.rev_indptr, graph.rev_adjacency
            dist_here, dist_there = dist_bwd, dist_fwd
            frontier = frontier_bwd

        level = int(dist_here[frontier[0]]) + 1
        neighbors = frontier_neighbors(indptr, adj, frontier)
        if neighbors.size:
            fresh = np.unique(neighbors[dist_here[neighbors] == UNREACHABLE])
        else:
            fresh = np.empty(0, dtype=np.int64)
        if fresh.size:
            dist_here[fresh] = level
            met = fresh[dist_there[fresh] != UNREACHABLE]
            if met.size:
                best = min(best, float((dist_fwd[met] + dist_bwd[met]).min()))
        frontier = fresh.astype(np.int64)
        if expand_forward:
            frontier_fwd = frontier
        else:
            frontier_bwd = frontier

        # Termination: once the sum of completed radii reaches the best meeting
        # distance, no shorter path can exist.
        if np.isfinite(best):
            radius_fwd = int(dist_fwd[frontier_fwd[0]]) if frontier_fwd.size else 0
            radius_bwd = int(dist_bwd[frontier_bwd[0]]) if frontier_bwd.size else 0
            if radius_fwd + radius_bwd >= best:
                return best
    return best


def dijkstra_distances(
    graph: Graph, source: int, *, reverse: bool = False
) -> np.ndarray:
    """Weighted shortest-path distances from ``source`` (``inf`` if unreachable)."""
    n = graph.num_vertices
    if source < 0 or source >= n:
        raise GraphError(f"source {source} out of range for {n} vertices")
    indptr = graph.rev_indptr if reverse else graph.indptr
    adj = graph.rev_adjacency if reverse else graph.adjacency
    if reverse:
        weights = graph.rev_weights
    else:
        weights = graph.weights
    if weights is None:
        weights = np.ones(adj.shape[0], dtype=np.float64)

    dist = np.full(n, np.inf, dtype=np.float64)
    dist[source] = 0.0
    done = np.zeros(n, dtype=bool)
    heap: list[Tuple[float, int]] = [(0.0, source)]
    while heap:
        d, u = heapq.heappop(heap)
        if done[u]:
            continue
        done[u] = True
        start, end = indptr[u], indptr[u + 1]
        for idx in range(start, end):
            v = int(adj[idx])
            candidate = d + float(weights[idx])
            if candidate < dist[v]:
                dist[v] = candidate
                heapq.heappush(heap, (candidate, v))
    return dist


def dijkstra_tree(
    graph: Graph, source: int, *, reverse: bool = False
) -> Tuple[np.ndarray, np.ndarray]:
    """Weighted distances and parent pointers from ``source``."""
    n = graph.num_vertices
    if source < 0 or source >= n:
        raise GraphError(f"source {source} out of range for {n} vertices")
    indptr = graph.rev_indptr if reverse else graph.indptr
    adj = graph.rev_adjacency if reverse else graph.adjacency
    weights = graph.rev_weights if reverse else graph.weights
    if weights is None:
        weights = np.ones(adj.shape[0], dtype=np.float64)

    dist = np.full(n, np.inf, dtype=np.float64)
    parent = np.full(n, -1, dtype=np.int64)
    dist[source] = 0.0
    done = np.zeros(n, dtype=bool)
    heap: list[Tuple[float, int]] = [(0.0, source)]
    while heap:
        d, u = heapq.heappop(heap)
        if done[u]:
            continue
        done[u] = True
        start, end = indptr[u], indptr[u + 1]
        for idx in range(start, end):
            v = int(adj[idx])
            candidate = d + float(weights[idx])
            if candidate < dist[v]:
                dist[v] = candidate
                parent[v] = u
                heapq.heappush(heap, (candidate, v))
    return dist, parent


def eccentricity(graph: Graph, vertices: Optional[Iterable[int]] = None) -> np.ndarray:
    """Eccentricity (max finite distance) of the given vertices (default: all)."""
    targets = (
        np.arange(graph.num_vertices)
        if vertices is None
        else np.asarray(list(vertices), dtype=np.int64)
    )
    result = np.zeros(targets.shape[0], dtype=np.int32)
    for i, v in enumerate(targets):
        dist = bfs_distances(graph, int(v))
        reachable = dist[dist != UNREACHABLE]
        result[i] = int(reachable.max()) if reachable.size else 0
    return result
