"""Bit-parallel labeling (Section 5 of the paper).

A *bit-parallel BFS* covers a root ``r`` together with up to ``b`` of its
neighbours ``S_r`` in a single traversal: along with the distance from ``r``
it propagates, for every vertex ``v``, two ``b``-bit masks encoding which
members of ``S_r`` are one step *closer* than ``r`` (``S_r^{-1}(v)``) and
which are at the *same* distance (``S_r^0(v)``).  A single label entry then
answers the minimum distance through any of the ``b + 1`` vertices
``{r} ∪ S_r`` in O(1) time with two bitwise ANDs (Section 5.3).

The paper uses the machine word (``b = 64``); we store the masks in numpy
``uint64`` arrays, so the same bound applies, and all mask updates are
performed with vectorised ``bitwise_or`` scatter operations so that the
traversal cost is paid per BFS level rather than per edge in the interpreter.

The pruned-labeling driver (:mod:`repro.core.pruned`) consumes two things from
this module: the frozen :class:`BitParallelLabels` container (part of the
final index, used at query time) and :func:`query_upper_bounds_for_root`,
which evaluates the bit-parallel distance bound for a whole BFS frontier at
once during the prune test.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.errors import IndexBuildError
from repro.graph.csr import Graph
from repro.graph.traversal import frontier_edges

__all__ = [
    "BP_INF",
    "WORD_BITS",
    "BitParallelLabels",
    "bit_parallel_bfs",
    "select_bit_parallel_roots",
    "build_bit_parallel_labels",
    "query_upper_bounds_for_root",
]

#: Number of bits per mask word (the paper's ``b``).
WORD_BITS = 64

#: Sentinel distance meaning "unreachable" in bit-parallel distance arrays.
BP_INF = np.iinfo(np.uint16).max


@dataclass
class BitParallelLabels:
    """Frozen bit-parallel labels for ``t`` roots over ``n`` vertices.

    Attributes
    ----------
    roots:
        The ``t`` root vertices, in the order their BFSs were performed.
    root_sets:
        For each root, the list of neighbour vertices forming ``S_r`` (at most
        :data:`WORD_BITS` of them); bit ``i`` of the masks refers to
        ``root_sets[k][i]``.
    dist:
        ``(t, n)`` ``uint16`` array of distances from each root
        (:data:`BP_INF` when unreachable).
    s_minus:
        ``(t, n)`` ``uint64`` masks of ``S_r`` members one step closer than the
        root.
    s_zero:
        ``(t, n)`` ``uint64`` masks of ``S_r`` members at the same distance as
        the root.
    """

    roots: np.ndarray
    root_sets: List[List[int]]
    dist: np.ndarray
    s_minus: np.ndarray
    s_zero: np.ndarray

    @property
    def num_roots(self) -> int:
        """Number of bit-parallel BFSs stored."""
        return int(self.roots.shape[0])

    @property
    def num_vertices(self) -> int:
        """Number of vertices covered."""
        return int(self.dist.shape[1]) if self.dist.ndim == 2 else 0

    def covered_vertices(self) -> np.ndarray:
        """All vertices used as a root or a set member (they need no normal BFS)."""
        members = [int(r) for r in self.roots]
        for group in self.root_sets:
            members.extend(int(v) for v in group)
        return np.unique(np.asarray(members, dtype=np.int64))

    def nbytes(self) -> int:
        """Approximate in-memory size of the label arrays in bytes."""
        return int(self.dist.nbytes + self.s_minus.nbytes + self.s_zero.nbytes)

    def query(self, s: int, t: int) -> float:
        """Minimum distance between ``s`` and ``t`` through any covered hub.

        Implements the O(1)-per-root test of Section 5.3, vectorised over all
        roots.  Returns ``inf`` when no root reaches both endpoints.
        """
        if self.num_roots == 0:
            return float("inf")
        best = int(_min_bounds(self, s, t))
        return float("inf") if best >= BP_INF else float(best)

    def query_pairs(self, sources: np.ndarray, targets: np.ndarray) -> np.ndarray:
        """Distance bounds for aligned ``sources[i], targets[i]`` pairs.

        The batched counterpart of :meth:`query`: the per-root O(1) test of
        Section 5.3 is evaluated for every pair of the batch at once (shape
        ``(num_roots, batch)``), so the cost per pair is a few machine
        operations per root.  Returns ``inf`` where no root reaches both
        endpoints.
        """
        sources = np.asarray(sources, dtype=np.int64)
        targets = np.asarray(targets, dtype=np.int64)
        if sources.shape != targets.shape:
            raise ValueError("sources and targets must have the same length")
        if self.num_roots == 0 or sources.shape[0] == 0:
            return np.full(sources.shape[0], np.inf, dtype=np.float64)
        return _as_distances(_min_bounds(self, sources, targets))

    def query_one_to_many(
        self, source: int, targets: Optional[np.ndarray] = None
    ) -> np.ndarray:
        """Distance bounds from ``source`` to many targets in one vectorised pass.

        Companion of :meth:`repro.core.kernels.BatchQueryKernel.query_one_to_many`
        for the bit-parallel part of an index.  Returns ``inf`` entries when there
        are no bit-parallel labels.
        """
        if targets is None:
            target_array = np.arange(self.num_vertices, dtype=np.int64)
        else:
            target_array = np.asarray(targets, dtype=np.int64)
        return _as_distances(query_upper_bounds_for_root(self, source, target_array))

    def empty(self) -> bool:
        """Whether there are no bit-parallel labels at all."""
        return self.num_roots == 0

    @staticmethod
    def make_empty(num_vertices: int) -> "BitParallelLabels":
        """A zero-root container for indexes built without bit-parallel labels."""
        return BitParallelLabels(
            roots=np.zeros(0, dtype=np.int64),
            root_sets=[],
            dist=np.zeros((0, num_vertices), dtype=np.uint16),
            s_minus=np.zeros((0, num_vertices), dtype=np.uint64),
            s_zero=np.zeros((0, num_vertices), dtype=np.uint64),
        )


def bit_parallel_bfs(
    graph: Graph,
    root: int,
    sub_roots: Sequence[int],
    *,
    reverse: bool = False,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """One bit-parallel BFS (Algorithm 3 of the paper).

    Parameters
    ----------
    graph:
        The (unweighted) graph.
    root:
        The root vertex ``r``.
    sub_roots:
        Up to :data:`WORD_BITS` *neighbours* of the root forming ``S_r``.
        Bit ``i`` of the returned masks refers to ``sub_roots[i]``.
    reverse:
        Traverse incoming edges (used by the directed variant).

    Returns
    -------
    (dist, s_minus, s_zero):
        Arrays of length ``n``: ``uint16`` distances from the root
        (:data:`BP_INF` when unreachable) and the two ``uint64`` masks.
    """
    n = graph.num_vertices
    sub_roots = [int(v) for v in sub_roots]
    if len(sub_roots) > WORD_BITS:
        raise IndexBuildError(
            f"at most {WORD_BITS} sub-roots per bit-parallel BFS, got {len(sub_roots)}"
        )
    neighbor_set = set(int(v) for v in graph.neighbors(root))
    for v in sub_roots:
        if v not in neighbor_set:
            raise IndexBuildError(
                f"sub-root {v} is not a neighbour of bit-parallel root {root}"
            )
    if len(set(sub_roots)) != len(sub_roots):
        raise IndexBuildError("sub-roots must be distinct")

    indptr = graph.rev_indptr if reverse else graph.indptr
    adj = graph.rev_adjacency if reverse else graph.adjacency

    dist = np.full(n, BP_INF, dtype=np.uint16)
    s_minus = np.zeros(n, dtype=np.uint64)
    s_zero = np.zeros(n, dtype=np.uint64)

    dist[root] = 0
    for bit, v in enumerate(sub_roots):
        dist[v] = 1
        s_minus[v] |= np.uint64(1) << np.uint64(bit)

    frontier = np.array([root], dtype=np.int64)
    level = 0
    # Vertices already at distance 1 (the sub-roots) join the next frontier.
    pending_next = np.array(sorted(set(sub_roots)), dtype=np.int64)

    while frontier.size:
        origins, targets = frontier_edges(indptr, adj, frontier)
        if origins.size:
            target_dist = dist[targets]

            # Discover new vertices at distance level + 1.
            undiscovered = target_dist == BP_INF
            fresh = np.unique(targets[undiscovered]) if undiscovered.any() else None
            if fresh is not None and fresh.size:
                dist[fresh] = level + 1

            # E0: edges within the current level; applied before E1 so that the
            # same-level contributions are visible to the next level (the order
            # Algorithm 3 prescribes).
            same_level = target_dist == level
            if same_level.any():
                np.bitwise_or.at(
                    s_zero, targets[same_level], s_minus[origins[same_level]]
                )

            # E1: edges into the next level (both newly discovered targets and
            # targets discovered earlier in this very level by another origin).
            next_level = dist[targets] == level + 1
            if next_level.any():
                e1_targets = targets[next_level]
                e1_origins = origins[next_level]
                np.bitwise_or.at(s_minus, e1_targets, s_minus[e1_origins])
                np.bitwise_or.at(s_zero, e1_targets, s_zero[e1_origins])

            next_frontier = np.unique(targets[dist[targets] == level + 1])
        else:
            next_frontier = np.empty(0, dtype=np.int64)

        if pending_next.size:
            next_frontier = np.unique(np.concatenate([next_frontier, pending_next]))
            pending_next = np.empty(0, dtype=np.int64)
        frontier = next_frontier.astype(np.int64)
        level += 1

    # The level-synchronous DP can place a sub-root in S^0(v) when it actually
    # belongs to S^{-1}(v) (the paper's recurrence has the same slack, and the
    # query remains correct because the S^{-1} test takes priority).  Normalise
    # to the exact set definition so the masks are disjoint, as in Section 5.1.
    s_zero &= ~s_minus
    return dist, s_minus, s_zero


def select_bit_parallel_roots(
    graph: Graph,
    order: np.ndarray,
    num_roots: int,
    *,
    max_bits: int = WORD_BITS,
) -> List[Tuple[int, List[int]]]:
    """Greedy root/sub-root selection for the bit-parallel phase (Section 5.4).

    Walking the vertex order (highest priority first), each still-unused vertex
    becomes a root and grabs up to ``max_bits`` of its still-unused neighbours
    (again in priority order) as its ``S_r``.  Both the root and the grabbed
    neighbours are marked used so later bit-parallel BFSs pick fresh hubs.

    Returns fewer than ``num_roots`` pairs when the graph runs out of unused
    vertices.
    """
    if max_bits > WORD_BITS:
        raise IndexBuildError(f"max_bits cannot exceed {WORD_BITS}")
    n = graph.num_vertices
    rank = np.empty(n, dtype=np.int64)
    rank[order] = np.arange(n)
    used = np.zeros(n, dtype=bool)
    selections: List[Tuple[int, List[int]]] = []

    for vertex in order:
        if len(selections) >= num_roots:
            break
        vertex = int(vertex)
        if used[vertex]:
            continue
        used[vertex] = True
        neighbors = graph.neighbors(vertex)
        candidates = neighbors[~used[neighbors]]
        if candidates.size:
            # Highest priority (lowest rank) neighbours first.
            priority = np.argsort(rank[candidates], kind="stable")
            chosen = candidates[priority][:max_bits]
        else:
            chosen = np.empty(0, dtype=np.int64)
        chosen_list = [int(v) for v in chosen]
        used[chosen] = True
        selections.append((vertex, chosen_list))
    return selections


def build_bit_parallel_labels(
    graph: Graph,
    order: np.ndarray,
    num_roots: int,
    *,
    max_bits: int = WORD_BITS,
) -> BitParallelLabels:
    """Run ``num_roots`` bit-parallel BFSs with greedy root selection."""
    n = graph.num_vertices
    if num_roots <= 0:
        return BitParallelLabels.make_empty(n)
    selections = select_bit_parallel_roots(
        graph, order, num_roots, max_bits=max_bits
    )
    t = len(selections)
    dist = np.full((t, n), BP_INF, dtype=np.uint16)
    s_minus = np.zeros((t, n), dtype=np.uint64)
    s_zero = np.zeros((t, n), dtype=np.uint64)
    roots = np.zeros(t, dtype=np.int64)
    root_sets: List[List[int]] = []
    for i, (root, sub_roots) in enumerate(selections):
        roots[i] = root
        root_sets.append(sub_roots)
        dist[i], s_minus[i], s_zero[i] = bit_parallel_bfs(graph, root, sub_roots)
    return BitParallelLabels(
        roots=roots, root_sets=root_sets, dist=dist, s_minus=s_minus, s_zero=s_zero
    )


def _min_bounds(bp: BitParallelLabels, s, t) -> np.ndarray:
    """The Section 5.3 distance bound through every root, minimised over roots.

    ``s`` and ``t`` select vertex columns of the ``(roots, n)`` arrays and
    must broadcast against each other: two ints (one pair), two aligned
    arrays (a batch), or a one-column slice against an array (one vertex
    against many).  Each column is gathered once.  Through root ``r`` the
    bound is

        d_s + d_t - [S⁻¹(s) ∩ S⁻¹(t) ≠ ∅]
                  - [S⁻¹(s) ∩ (S⁻¹(t) ∪ S⁰(t)) ≠ ∅  or  S⁰(s) ∩ S⁻¹(t) ≠ ∅]

    i.e. two less when a member of ``S_r`` is one step closer to both
    endpoints than ``r``, one less when it is closer to one and level with
    ``r`` for the other.  A root that misses an endpoint contributes
    :data:`BP_INF`.  Returns ``int32`` minima, ``>= BP_INF`` where no root
    reaches both endpoints.
    """
    d_s, d_t = bp.dist[:, s], bp.dist[:, t]
    m_s, m_t = bp.s_minus[:, s], bp.s_minus[:, t]
    z_s, z_t = bp.s_zero[:, s], bp.s_zero[:, t]
    bound = d_s.astype(np.int32) + d_t
    bound -= (m_s & m_t) != 0
    bound -= ((m_s & (m_t | z_t)) | (z_s & m_t)) != 0
    bound[np.maximum(d_s, d_t) == BP_INF] = BP_INF
    return bound.min(axis=0)


def _as_distances(bounds: np.ndarray) -> np.ndarray:
    """``float64`` distances from :func:`_min_bounds` minima (``inf`` if unreached)."""
    result = bounds.astype(np.float64)
    result[bounds >= BP_INF] = np.inf
    return result


def query_upper_bounds_for_root(
    bp: BitParallelLabels, root: int, vertices: np.ndarray
) -> np.ndarray:
    """Bit-parallel distance bounds between ``root`` and each of ``vertices``.

    Used for the prune test of the pruned-BFS phase: the whole frontier is
    evaluated with a handful of vectorised operations.  Returns an ``int32``
    array where unreachable combinations hold a value ``>= BP_INF``.
    """
    if bp.num_roots == 0 or vertices.size == 0:
        return np.full(vertices.shape[0], BP_INF, dtype=np.int32)
    return _min_bounds(bp, slice(root, root + 1), vertices)
