"""Label storage for 2-hop-cover distance indexes.

A *label* of vertex ``v`` is a set of pairs ``(hub, distance)`` such that every
pair of vertices shares at least one hub lying on a shortest path between them
(Section 3.3 of the paper).  Two representations are used:

* :class:`LabelAccumulator` — mutable, append-only storage used while the
  pruned BFSs are running.  Hubs are stored by *rank* (position in the vertex
  processing order), so entries are produced in increasing-rank order and the
  final arrays are sorted without an explicit sort — exactly the trick noted
  in Section 4.5.1 ("Sorting Labels").
* :class:`LabelSet` — the frozen, numpy-backed index.  Per-vertex hub and
  distance arrays are stored in one flat array each with an ``indptr`` offset
  table (the same layout as CSR adjacency), which keeps queries cache friendly
  and makes serialisation trivial.

Distances are stored as ``uint16`` with :data:`INF_DISTANCE` as the
"unreachable" sentinel; the paper uses 8-bit distances because its networks
have tiny diameters, but 16 bits lets the same code serve road-like graphs in
the examples without overflow while still being compact.
"""

from __future__ import annotations

from typing import Iterator, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.errors import IndexBuildError

__all__ = ["INF_DISTANCE", "LabelAccumulator", "LabelSet", "intersect_query", "merge_labels"]

#: Sentinel distance meaning "unreachable" in label and temporary arrays.
INF_DISTANCE = np.iinfo(np.uint16).max


def merge_labels(
    s_hubs: np.ndarray,
    s_dists: np.ndarray,
    t_hubs: np.ndarray,
    t_dists: np.ndarray,
) -> Tuple[np.ndarray, np.ndarray]:
    """The hubs two rank-sorted labels share, and ``d(s, w) + d(w, t)`` via each.

    The label merge behind every scalar query: one ``np.searchsorted`` of
    ``s``'s hubs into ``t``'s finds each common hub, where ``np.intersect1d``
    would concatenate and sort both labels.  Returns ``(hubs, sums)`` in
    increasing hub rank, so the first minimum of ``sums`` is at the
    lowest-rank hub; ``sums`` are ``float64`` (exact for every distance type
    stored here) and empty when the labels share no hub.
    """
    if not s_hubs.shape[0] or not t_hubs.shape[0]:
        return s_hubs[:0], np.empty(0, dtype=np.float64)
    at = np.searchsorted(t_hubs, s_hubs)
    common = t_hubs.take(at, mode="clip") == s_hubs
    return s_hubs[common], np.add(s_dists[common], t_dists[at[common]], dtype=np.float64)


def intersect_query(
    s_hubs: np.ndarray,
    s_dists: np.ndarray,
    t_hubs: np.ndarray,
    t_dists: np.ndarray,
) -> float:
    """Minimum ``d(s, w) + d(w, t)`` over common hubs (``inf`` if none).

    The scalar 2-hop query over two rank-sorted labels, via
    :func:`merge_labels`.
    """
    _, sums = merge_labels(s_hubs, s_dists, t_hubs, t_dists)
    return float(sums.min()) if sums.shape[0] else float("inf")


class LabelAccumulator:
    """Mutable per-vertex label lists used during index construction.

    Entries are appended as ``(hub_rank, distance)`` and must arrive in
    non-decreasing hub-rank order per vertex (which the pruned-BFS driver
    guarantees by processing ranks in increasing order).
    """

    __slots__ = ("_hubs", "_dists", "_num_vertices")

    def __init__(self, num_vertices: int) -> None:
        self._num_vertices = num_vertices
        self._hubs: List[List[int]] = [[] for _ in range(num_vertices)]
        self._dists: List[List[int]] = [[] for _ in range(num_vertices)]

    @property
    def num_vertices(self) -> int:
        """Number of vertices covered by this accumulator."""
        return self._num_vertices

    def append(self, vertex: int, hub_rank: int, distance: int) -> None:
        """Append one ``(hub_rank, distance)`` entry to ``vertex``'s label."""
        if distance >= INF_DISTANCE:
            raise IndexBuildError(
                f"distance {distance} does not fit the 16-bit label encoding"
            )
        hubs = self._hubs[vertex]
        if hubs and hubs[-1] > hub_rank:
            raise IndexBuildError(
                "label entries must be appended in non-decreasing hub-rank order"
            )
        hubs.append(hub_rank)
        self._dists[vertex].append(distance)

    def label_size(self, vertex: int) -> int:
        """Number of entries currently stored for ``vertex``."""
        return len(self._hubs[vertex])

    def total_entries(self) -> int:
        """Total number of label entries across all vertices."""
        return sum(len(hubs) for hubs in self._hubs)

    def entries(self, vertex: int) -> Iterator[Tuple[int, int]]:
        """Iterate over ``(hub_rank, distance)`` entries of one vertex."""
        return zip(self._hubs[vertex], self._dists[vertex])

    def hub_ranks(self, vertex: int) -> List[int]:
        """The raw hub-rank list of one vertex (do not mutate)."""
        return self._hubs[vertex]

    def distances(self, vertex: int) -> List[int]:
        """The raw distance list of one vertex (do not mutate)."""
        return self._dists[vertex]

    def freeze(self, order: Sequence[int]) -> "LabelSet":
        """Convert to an immutable :class:`LabelSet`.

        Parameters
        ----------
        order:
            The vertex processing order; ``order[r]`` is the vertex whose rank
            is ``r``.  Stored so that hubs can be reported as vertex ids.
        """
        return LabelSet.from_lists(self._hubs, self._dists, order)


class LabelSet:
    """Immutable 2-hop labels for all vertices (the "normal" labels of the paper).

    Parameters
    ----------
    indptr:
        Offsets: vertex ``v``'s entries live in ``hubs[indptr[v]:indptr[v+1]]``.
    hubs:
        Flat array of hub *ranks*, sorted increasingly within each vertex.
    dists:
        Flat array of distances aligned with ``hubs``.
    order:
        ``order[r]`` is the vertex id whose rank is ``r``.
    """

    __slots__ = ("_indptr", "_hubs", "_dists", "_order", "_rank")

    def __init__(
        self,
        indptr: np.ndarray,
        hubs: np.ndarray,
        dists: np.ndarray,
        order: np.ndarray,
    ) -> None:
        self._indptr = np.asarray(indptr, dtype=np.int64)
        self._hubs = np.asarray(hubs, dtype=np.int32)
        self._dists = np.asarray(dists, dtype=np.uint16)
        self._order = np.asarray(order, dtype=np.int64)
        rank = np.empty(self._order.shape[0], dtype=np.int64)
        rank[self._order] = np.arange(self._order.shape[0])
        self._rank = rank

    @classmethod
    def from_lists(
        cls,
        hubs_per_vertex: Sequence[Sequence[int]],
        dists_per_vertex: Sequence[Sequence[int]],
        order: Sequence[int],
    ) -> "LabelSet":
        """Flatten per-vertex ``(hub_rank, distance)`` lists into a frozen set.

        The canonical list-of-lists -> CSR conversion, shared by
        :meth:`LabelAccumulator.freeze` and the dynamic oracle's snapshot
        :meth:`~repro.core.dynamic.DynamicPrunedLandmarkLabeling.freeze`.
        Per-vertex lists must already be sorted by hub rank.
        """
        num_vertices = len(hubs_per_vertex)
        sizes = np.array([len(h) for h in hubs_per_vertex], dtype=np.int64)
        indptr = np.zeros(num_vertices + 1, dtype=np.int64)
        np.cumsum(sizes, out=indptr[1:])
        total = int(indptr[-1])
        hubs = np.empty(total, dtype=np.int32)
        dists = np.empty(total, dtype=np.uint16)
        for v in range(num_vertices):
            start, end = indptr[v], indptr[v + 1]
            hubs[start:end] = hubs_per_vertex[v]
            dists[start:end] = dists_per_vertex[v]
        return cls(indptr, hubs, dists, order)

    def patched(
        self, updates: "Mapping[int, Tuple[Sequence[int], Sequence[int]]]"
    ) -> "LabelSet":
        """Copy-on-write update: replace the labels of a few vertices.

        ``updates`` maps a vertex id to its new ``(hub_ranks, distances)``
        lists (sorted by hub rank, like every per-vertex label).  The labels
        of every other vertex are copied from this set in contiguous block
        slices, so the cost is a handful of vectorised copies plus work
        proportional to the patched labels — far below re-materialising all
        per-vertex lists with :meth:`from_lists`.  This is what makes
        diff-based snapshot publication cheap for the dynamic oracle (see
        :meth:`repro.core.dynamic.DynamicPrunedLandmarkLabeling.freeze`).

        Returns ``self`` unchanged when ``updates`` is empty; the receiver is
        never mutated.
        """
        if not updates:
            return self
        num_vertices = self.num_vertices
        arrays = {}
        for vertex, (hubs, dists) in updates.items():
            if not (0 <= vertex < num_vertices):
                raise IndexBuildError(
                    f"patched vertex {vertex} out of range for "
                    f"{num_vertices} vertices"
                )
            arrays[int(vertex)] = (
                np.asarray(hubs, dtype=np.int32),
                np.asarray(dists, dtype=np.uint16),
            )
        dirty = sorted(arrays)

        new_sizes = np.diff(self._indptr)
        for vertex in dirty:
            new_sizes[vertex] = arrays[vertex][0].shape[0]
        new_indptr = np.zeros(num_vertices + 1, dtype=np.int64)
        np.cumsum(new_sizes, out=new_indptr[1:])
        total = int(new_indptr[-1])
        new_hubs = np.empty(total, dtype=np.int32)
        new_dists = np.empty(total, dtype=np.uint16)

        # Alternate between block-copying the untouched run before each dirty
        # vertex and writing that vertex's replacement label.
        run_start = 0
        for vertex in dirty + [num_vertices]:
            if run_start < vertex:
                src0, src1 = self._indptr[run_start], self._indptr[vertex]
                dst0 = new_indptr[run_start]
                new_hubs[dst0: dst0 + (src1 - src0)] = self._hubs[src0:src1]
                new_dists[dst0: dst0 + (src1 - src0)] = self._dists[src0:src1]
            if vertex < num_vertices:
                hubs, dists = arrays[vertex]
                start = new_indptr[vertex]
                new_hubs[start: start + hubs.shape[0]] = hubs
                new_dists[start: start + dists.shape[0]] = dists
            run_start = vertex + 1
        return LabelSet(new_indptr, new_hubs, new_dists, self._order)

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #

    @property
    def num_vertices(self) -> int:
        """Number of vertices covered by the label set."""
        return self._indptr.shape[0] - 1

    @property
    def indptr(self) -> np.ndarray:
        """Per-vertex offset table (length ``n + 1``)."""
        return self._indptr

    @property
    def hub_ranks(self) -> np.ndarray:
        """Flat array of hub ranks."""
        return self._hubs

    @property
    def distances(self) -> np.ndarray:
        """Flat array of hub distances."""
        return self._dists

    @property
    def order(self) -> np.ndarray:
        """Vertex processing order (rank -> vertex id)."""
        return self._order

    @property
    def rank(self) -> np.ndarray:
        """Vertex ranks (vertex id -> rank)."""
        return self._rank

    def label_size(self, vertex: int) -> int:
        """Number of label entries of ``vertex``."""
        return int(self._indptr[vertex + 1] - self._indptr[vertex])

    def label_sizes(self) -> np.ndarray:
        """Label sizes of every vertex."""
        return np.diff(self._indptr)

    def average_label_size(self) -> float:
        """Average number of label entries per vertex (the paper's LN column)."""
        if self.num_vertices == 0:
            return 0.0
        return float(self._hubs.shape[0]) / self.num_vertices

    def total_entries(self) -> int:
        """Total number of label entries."""
        return int(self._hubs.shape[0])

    def nbytes(self) -> int:
        """Approximate in-memory size of the label arrays in bytes."""
        return int(
            self._indptr.nbytes + self._hubs.nbytes + self._dists.nbytes
        )

    def vertex_label(self, vertex: int) -> Tuple[np.ndarray, np.ndarray]:
        """Return ``(hub_ranks, distances)`` views for one vertex."""
        start, end = self._indptr[vertex], self._indptr[vertex + 1]
        return self._hubs[start:end], self._dists[start:end]

    def vertex_label_as_vertices(self, vertex: int) -> List[Tuple[int, int]]:
        """Label entries of ``vertex`` as ``(hub_vertex_id, distance)`` pairs."""
        hubs, dists = self.vertex_label(vertex)
        return [(int(self._order[h]), int(d)) for h, d in zip(hubs, dists)]

    # ------------------------------------------------------------------ #
    # Querying
    # ------------------------------------------------------------------ #

    def query(self, s: int, t: int) -> float:
        """2-hop distance upper bound between ``s`` and ``t``.

        For a complete pruned-landmark-labeling index this equals the exact
        distance; for a partial index (e.g. during construction analysis) it
        is an upper bound.  Returns ``inf`` when the labels share no hub.
        """
        return intersect_query(*self.vertex_label(s), *self.vertex_label(t))

    def query_via(self, s: int, t: int) -> Tuple[float, Optional[int]]:
        """Like :meth:`query` but also return the hub vertex realising the minimum.

        On a tie the lowest-rank hub wins.
        """
        hubs, sums = merge_labels(*self.vertex_label(s), *self.vertex_label(t))
        if not sums.shape[0]:
            return float("inf"), None
        best = int(sums.argmin())
        return float(sums[best]), int(self._order[hubs[best]])
