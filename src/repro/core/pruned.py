"""Pruned landmark labeling: the pruned-BFS indexing phase (Section 4).

The construction performs one (pruned) BFS per vertex, in a priority order
supplied by the caller (Degree order by default, see
:mod:`repro.graph.ordering`).  While visiting vertex ``u`` at distance ``d``
from the current root, the BFS first asks whether the *existing* index already
certifies ``dist(root, u) <= d``; if so, ``u`` is pruned — it receives no new
label entry and none of its edges are traversed.  Theorem 4.1 of the paper
shows the surviving entries still form an exact 2-hop cover.

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
from typing import List, Optional, Tuple

import numpy as np

from repro.core.bitparallel import BitParallelLabels, query_upper_bounds_for_root
from repro.core.labels import LabelAccumulator, LabelSet
from repro.core.query import RootedQueryEvaluator
from repro.errors import IndexBuildError
from repro.graph.csr import Graph
from repro.graph.traversal import frontier_neighbors

__all__ = ["ConstructionStats", "build_pruned_labels", "build_naive_labels"]


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
    n = graph.num_vertices
    order = np.asarray(order, dtype=np.int64)
    if order.shape[0] != n or np.any(np.sort(order) != np.arange(n)):
        raise IndexBuildError("order must be a permutation of all vertices")
    if graph.directed:
        raise IndexBuildError(
            "build_pruned_labels handles undirected graphs; use the directed "
            "index for directed graphs"
        )

    bp = bit_parallel if bit_parallel is not None else BitParallelLabels.make_empty(n)
    use_bp = not bp.empty()

    labels = LabelAccumulator(n)
    evaluator = RootedQueryEvaluator(n)
    indptr, adj = graph.indptr, graph.adjacency

    labeled_counter = np.zeros(n, dtype=np.int64)
    visited_counter = np.zeros(n, dtype=np.int64)
    pruned_counter = np.zeros(n, dtype=np.int64)

    start_time = time.perf_counter()

    for k in range(n):
        root = int(order[k])
        evaluator.attach(labels, root)

        dist = np.full(n, -1, dtype=np.int32)
        dist[root] = 0
        frontier = np.array([root], dtype=np.int64)
        depth = 0
        labeled_this_bfs = 0
        visited_this_bfs = 0

        while frontier.size:
            visited_this_bfs += int(frontier.size)

            if use_bp:
                bp_bounds = query_upper_bounds_for_root(bp, root, frontier).tolist()
            else:
                bp_bounds = None
            frontier_list = frontier.tolist()

            survivors: List[int] = []
            for idx, u in enumerate(frontier_list):
                if bp_bounds is not None and bp_bounds[idx] <= depth:
                    continue
                if evaluator.query_upper_bound_with_cutoff(labels, u, depth):
                    continue
                labels.append(u, k, depth)
                survivors.append(u)
            labeled_this_bfs += len(survivors)

            if not survivors:
                break
            survivor_array = np.asarray(survivors, dtype=np.int64)
            neighbors = frontier_neighbors(indptr, adj, survivor_array)
            fresh = neighbors[dist[neighbors] < 0]
            if fresh.size == 0:
                break
            frontier = np.unique(fresh).astype(np.int64)
            dist[frontier] = depth + 1
            depth += 1

        evaluator.detach()
        if collect_stats:
            labeled_counter[k] = labeled_this_bfs
            visited_counter[k] = visited_this_bfs
            pruned_counter[k] = visited_this_bfs - labeled_this_bfs

    elapsed = time.perf_counter() - start_time
    stats = ConstructionStats(
        labeled_per_bfs=labeled_counter if collect_stats else np.zeros(0, np.int64),
        visited_per_bfs=visited_counter if collect_stats else np.zeros(0, np.int64),
        pruned_per_bfs=pruned_counter if collect_stats else np.zeros(0, np.int64),
        elapsed_seconds=elapsed,
    )
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
    n = graph.num_vertices
    order = np.asarray(order, dtype=np.int64)
    if order.shape[0] != n or np.any(np.sort(order) != np.arange(n)):
        raise IndexBuildError("order must be a permutation of all vertices")
    if graph.directed:
        raise IndexBuildError("build_naive_labels handles undirected graphs only")

    labels = LabelAccumulator(n)
    indptr, adj = graph.indptr, graph.adjacency
    labeled_counter = np.zeros(n, dtype=np.int64)
    start_time = time.perf_counter()

    for k in range(n):
        root = int(order[k])
        dist = np.full(n, -1, dtype=np.int32)
        dist[root] = 0
        frontier = np.array([root], dtype=np.int64)
        depth = 0
        labeled_this_bfs = 0
        while frontier.size:
            for u in frontier:
                labels.append(int(u), k, depth)
            labeled_this_bfs += int(frontier.size)
            neighbors = frontier_neighbors(indptr, adj, frontier)
            fresh = neighbors[dist[neighbors] < 0]
            if fresh.size == 0:
                break
            frontier = np.unique(fresh).astype(np.int64)
            dist[frontier] = depth + 1
            depth += 1
        if collect_stats:
            labeled_counter[k] = labeled_this_bfs

    elapsed = time.perf_counter() - start_time
    stats = ConstructionStats(
        labeled_per_bfs=labeled_counter if collect_stats else np.zeros(0, np.int64),
        visited_per_bfs=labeled_counter.copy() if collect_stats else np.zeros(0, np.int64),
        pruned_per_bfs=np.zeros(n if collect_stats else 0, dtype=np.int64),
        elapsed_seconds=elapsed,
    )
    return labels.freeze(order), stats
