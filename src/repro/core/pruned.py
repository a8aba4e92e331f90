"""Pruned landmark labeling: the pruned-BFS indexing phase (Section 4).

The construction performs one (pruned) BFS per vertex, in a priority order
supplied by the caller (Degree order by default, see
:mod:`repro.graph.ordering`).  While visiting vertex ``u`` at distance ``d``
from the current root, the BFS first asks whether the *existing* index already
certifies ``dist(root, u) <= d``; if so, ``u`` is pruned — it receives no new
label entry and none of its edges are traversed.  Theorem 4.1 of the paper
shows the surviving entries still form an exact 2-hop cover.

That per-root BFS (Algorithm 1) is written once, as :func:`pruned_bfs`, and
every unweighted builder runs it:

* :func:`build_pruned_labels` — once per root over an undirected graph; this
  is what :class:`~repro.core.index.PrunedLandmarkLabeling` and the path
  index :class:`~repro.core.paths.PathPrunedLandmarkLabeling` build with;
* :class:`~repro.core.directed.DirectedPrunedLandmarkLabeling` — twice per
  root, along out-edges (extending ``L_IN``) and along in-edges (extending
  ``L_OUT``).

:func:`resolve_order` is the one place a vertex order is computed or checked.
The weighted index keeps its own pruned Dijkstra, a different traversal.

Implementation notes (paper Section 4.5, adapted to Python/numpy):

* The BFS is level synchronous.  The prune test only consults the index state
  from *before* the current BFS, so evaluating a whole level at once is
  equivalent to the paper's queue formulation.
* The prune test against normal labels uses the "targeted" evaluator
  (:class:`~repro.core.query.RootedQueryEvaluator`): the root's label is
  loaded into a rank-indexed array once per BFS, making each test
  ``O(|L(u)|)`` with early exit.
* The prune test against bit-parallel labels is evaluated for the whole
  frontier with a few vectorised operations
  (:func:`~repro.core.bitparallel.query_upper_bounds_for_root`).
* Frontier expansion is the same vectorised gather used by
  :mod:`repro.graph.traversal`.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.core.bitparallel import BitParallelLabels, query_upper_bounds_for_root
from repro.core.labels import LabelAccumulator, LabelSet
from repro.core.query import RootedQueryEvaluator
from repro.errors import IndexBuildError
from repro.graph.csr import Graph
from repro.graph.ordering import compute_order
from repro.graph.traversal import bfs_distances, frontier_neighbors

__all__ = [
    "ConstructionStats",
    "build_pruned_labels",
    "build_naive_labels",
    "pruned_bfs",
    "resolve_order",
]


@dataclass
class ConstructionStats:
    """Per-BFS counters collected during index construction.

    These drive Figure 3 (labels added per pruned BFS) and the pruning
    ablations.  Index ``k`` of each array refers to the BFS performed from the
    vertex of rank ``k``.
    """

    #: Number of vertices that received a label in the k-th BFS.
    labeled_per_bfs: np.ndarray = field(default_factory=lambda: np.zeros(0, np.int64))
    #: Number of vertices visited (labelled or pruned) in the k-th BFS.
    visited_per_bfs: np.ndarray = field(default_factory=lambda: np.zeros(0, np.int64))
    #: Number of vertices visited but pruned in the k-th BFS.
    pruned_per_bfs: np.ndarray = field(default_factory=lambda: np.zeros(0, np.int64))
    #: Wall-clock seconds spent in the pruned-BFS phase.
    elapsed_seconds: float = 0.0

    def cumulative_labeled_fraction(self) -> np.ndarray:
        """Cumulative share of final label entries created by each BFS (Fig. 3b)."""
        total = self.labeled_per_bfs.sum()
        if total == 0:
            return np.zeros_like(self.labeled_per_bfs, dtype=np.float64)
        return np.cumsum(self.labeled_per_bfs) / float(total)


def resolve_order(
    graph: Graph,
    order: Optional[Sequence[int]] = None,
    *,
    ordering: str = "degree",
    seed: Optional[int] = 0,
) -> np.ndarray:
    """The vertex processing order: ``order`` if given, else ``ordering``'s.

    An explicit ``order`` must be a permutation of all vertices; anything
    else raises :class:`~repro.errors.IndexBuildError` here, before any
    labeling phase reads it.
    """
    if order is None:
        return compute_order(graph, ordering, seed=seed)
    order_array = np.asarray(order, dtype=np.int64)
    n = graph.num_vertices
    if order_array.shape != (n,) or np.any(np.sort(order_array) != np.arange(n)):
        raise IndexBuildError("order must be a permutation of all vertices")
    return order_array


def pruned_bfs(
    indptr: np.ndarray,
    adjacency: np.ndarray,
    root: int,
    rank: int,
    evaluator: RootedQueryEvaluator,
    labels: LabelAccumulator,
    bit_parallel: Optional[BitParallelLabels] = None,
) -> Tuple[int, int]:
    """One pruned BFS from ``root`` (Algorithm 1); returns ``(visited, labeled)``.

    ``evaluator`` must be attached to the label side the root's distances are
    read from; ``labels`` is the side every surviving vertex ``u`` gains the
    entry ``(rank, d(root, u))`` in, and the side the prune test reads ``u``'s
    label from.  Undirected builds pass one accumulator for both; the
    directed build attaches ``L_OUT(root)`` and extends ``L_IN`` along
    out-edges, then the reverse.  A non-empty ``bit_parallel`` prunes too.
    """
    dist = np.full(indptr.shape[0] - 1, -1, dtype=np.int32)
    dist[root] = 0
    frontier = np.array([root], dtype=np.int64)
    depth = 0
    visited = 0
    labeled = 0
    while frontier.size:
        visited += int(frontier.size)
        if bit_parallel is not None:
            bp_bounds = query_upper_bounds_for_root(bit_parallel, root, frontier).tolist()
        else:
            bp_bounds = None

        survivors: List[int] = []
        for idx, u in enumerate(frontier.tolist()):
            if bp_bounds is not None and bp_bounds[idx] <= depth:
                continue
            if evaluator.query_upper_bound_with_cutoff(labels, u, depth):
                continue
            labels.append(u, rank, depth)
            survivors.append(u)
        labeled += len(survivors)

        if not survivors:
            break
        neighbors = frontier_neighbors(indptr, adjacency, np.asarray(survivors, dtype=np.int64))
        fresh = neighbors[dist[neighbors] < 0]
        if fresh.size == 0:
            break
        frontier = np.unique(fresh).astype(np.int64)
        dist[frontier] = depth + 1
        depth += 1
    return visited, labeled


def _stats(
    collect: bool, labeled: np.ndarray, visited: np.ndarray, elapsed: float
) -> ConstructionStats:
    """Construction statistics; empty counter arrays unless ``collect``."""
    if not collect:
        labeled = visited = np.zeros(0, np.int64)
    return ConstructionStats(
        labeled_per_bfs=labeled,
        visited_per_bfs=visited,
        pruned_per_bfs=visited - labeled,
        elapsed_seconds=elapsed,
    )


def build_pruned_labels(
    graph: Graph,
    order: np.ndarray,
    *,
    bit_parallel: Optional[BitParallelLabels] = None,
    collect_stats: bool = False,
) -> Tuple[LabelSet, ConstructionStats]:
    """Run pruned BFSs from every vertex in ``order`` and return the labels.

    Parameters
    ----------
    graph:
        Undirected, unweighted graph.
    order:
        Vertex processing order (rank ``k`` processes ``order[k]``); must be a
        permutation of all vertices.
    bit_parallel:
        Optional bit-parallel labels built beforehand; they both participate in
        pruning and remain part of the final index.
    collect_stats:
        Whether to fill :class:`ConstructionStats` (small overhead).

    Returns
    -------
    (labels, stats):
        The frozen normal labels and the construction statistics (empty arrays
        unless ``collect_stats``).
    """
    order = resolve_order(graph, order)
    if graph.directed:
        raise IndexBuildError(
            "build_pruned_labels handles undirected graphs; use the directed "
            "index for directed graphs"
        )
    n = graph.num_vertices
    if bit_parallel is not None and bit_parallel.empty():
        bit_parallel = None

    labels = LabelAccumulator(n)
    evaluator = RootedQueryEvaluator(n)
    labeled = np.zeros(n, dtype=np.int64)
    visited = np.zeros(n, dtype=np.int64)
    start_time = time.perf_counter()
    for k in range(n):
        root = int(order[k])
        evaluator.attach(labels, root)
        visited[k], labeled[k] = pruned_bfs(
            graph.indptr, graph.adjacency, root, k, evaluator, labels, bit_parallel
        )
        evaluator.detach()
    stats = _stats(collect_stats, labeled, visited, time.perf_counter() - start_time)
    return labels.freeze(order), stats


def build_naive_labels(
    graph: Graph,
    order: np.ndarray,
    *,
    collect_stats: bool = False,
) -> Tuple[LabelSet, ConstructionStats]:
    """Naive landmark labeling (Section 4.1): full BFSs, no pruning.

    Included as the ablation baseline showing why pruning matters: the index
    it produces has ``Θ(n)`` entries per vertex and quadratic total size, so it
    is only usable on small graphs.
    """
    order = resolve_order(graph, order)
    if graph.directed:
        raise IndexBuildError("build_naive_labels handles undirected graphs only")
    n = graph.num_vertices
    labels = LabelAccumulator(n)
    labeled = np.zeros(n, dtype=np.int64)
    start_time = time.perf_counter()
    for k in range(n):
        dist = bfs_distances(graph, int(order[k]))
        reached = np.flatnonzero(dist >= 0)
        for u, d in zip(reached.tolist(), dist[reached].tolist()):
            labels.append(u, k, d)
        labeled[k] = reached.shape[0]
    stats = _stats(collect_stats, labeled, labeled.copy(), time.perf_counter() - start_time)
    return labels.freeze(order), stats
