"""Fully dynamic maintenance of a pruned-landmark-labeling index.

The paper's conclusion lists dynamic updates as future work; the authors later
published the incremental algorithm used here (resume pruned BFSs from the
endpoints of a new edge), and this module extends the index with a decremental
counterpart so the oracle tracks genuinely evolving graphs:

*Insertions.*  When an edge ``(a, b)`` is inserted, shortest paths can only
*shrink*, so the existing label entries remain valid upper bounds and the
index only needs new or improved entries.  For every hub ``r`` (of rank ``k``)
appearing in the label of ``a`` with distance ``d``, distances from ``r``
through the new edge are at most ``d + 1`` at ``b`` and grow by one per hop
beyond it, so a pruned BFS *resumed* from ``b`` at depth ``d + 1`` (pruning
against hubs of rank at most ``k``) discovers every improvement attributable
to ``r``; the symmetric pass handles hubs of ``b``.

*Deletions.*  When ``(a, b)`` is removed, shortest paths can only *grow*, so
some label entries become stale (they certify paths through the removed
edge).  :meth:`DynamicPrunedLandmarkLabeling.remove_edge` identifies the
*affected hubs* — roots whose BFS tree used the edge, recognisable by
``|d(root, a) - d(root, b)| == 1`` in the pre-removal graph — and, per
affected hub, the superset of vertices some shortest root-path of which went
through the edge (the shortest-path-DAG descendants of the far endpoint).
Stale entries at those vertices are dropped, then each hub is repaired in
increasing rank order with a pruned BFS *resumed from the surviving
frontier*: the unaffected neighbours of the affected region seed a
multi-source BFS whose exact new distances are re-inserted unless hubs of
lower rank already cover them.  Repairing in rank order keeps the prune test
sound (it only consults labels that are already exact for the new graph),
which also heals covers broken by the deletion — a vertex pruned at build
time because a lower-rank hub covered it is revisited whenever that cover
stretched.  Label minimality is not preserved by either direction of update.

The dynamic index keeps labels in per-vertex sorted Python lists so that
entries can be updated in place; query time is therefore a constant factor
slower than the frozen :class:`~repro.core.labels.LabelSet`, which is the
usual trade-off for updatability.  Every mutated vertex is tracked in a dirty
set, so :meth:`DynamicPrunedLandmarkLabeling.freeze` can publish snapshots by
*patching* only the changed per-vertex labels into the previously frozen
label set instead of re-materialising all of them.
"""

from __future__ import annotations

import bisect
import heapq
from collections import deque
from itertools import chain
from typing import Dict, FrozenSet, Iterable, List, Optional, Sequence, Set, Tuple

import numpy as np

from repro.core.index import PrunedLandmarkLabeling
from repro.core.kernels import rooted_probe
from repro.core.labels import LabelSet
from repro.core.query import merge_join_query
from repro.errors import IndexBuildError, IndexStateError, VertexError
from repro.graph.csr import Graph

__all__ = ["DynamicPrunedLandmarkLabeling"]

#: Internal "unreachable" sentinel for the rooted temp array; far above any
#: real distance sum but safe to add to one without overflow.
_TEMP_INF = 1 << 40


class DynamicPrunedLandmarkLabeling:
    """Pruned-landmark-labeling oracle supporting online edge insertions and removals.

    Parameters
    ----------
    ordering:
        Vertex ordering strategy used for the initial build.  The rank of a
        vertex is fixed at build time; newly important vertices are not
        re-ranked (matching the original incremental algorithm).
    seed:
        Seed for randomised orderings.

    Examples
    --------
    >>> from repro.graph import Graph
    >>> graph = Graph(4, [(0, 1), (2, 3)])
    >>> oracle = DynamicPrunedLandmarkLabeling().build(graph)
    >>> oracle.distance(0, 3)
    inf
    >>> oracle.insert_edge(1, 2)
    >>> oracle.distance(0, 3)
    3.0
    >>> oracle.remove_edge(1, 2)
    >>> oracle.distance(0, 3)
    inf
    """

    def __init__(self, *, ordering: str = "degree", seed: int = 0) -> None:
        self.ordering = ordering
        self.seed = seed
        self._adjacency: Optional[List[Set[int]]] = None
        self._order: Optional[np.ndarray] = None
        self._rank: Optional[np.ndarray] = None
        # Per-vertex parallel sorted lists: hub ranks and distances.
        self._hubs: Optional[List[List[int]]] = None
        self._dists: Optional[List[List[int]]] = None
        # Vertices whose label changed since the last freeze, the label set
        # that freeze produced (the base the next diff-freeze patches), and
        # the index it went into — whose lazily built batch kernel the next
        # diff-freeze also patches instead of rebuilding.
        self._dirty: Set[int] = set()
        self._frozen_labels: Optional[LabelSet] = None
        self._frozen_index: Optional[PrunedLandmarkLabeling] = None

    # ------------------------------------------------------------------ #
    # Construction
    # ------------------------------------------------------------------ #

    def build(self, graph: Graph) -> "DynamicPrunedLandmarkLabeling":
        """Build the initial index from a static graph."""
        if graph.directed:
            raise IndexBuildError(
                "DynamicPrunedLandmarkLabeling expects an undirected graph"
            )
        static = PrunedLandmarkLabeling(
            ordering=self.ordering, num_bit_parallel_roots=0, seed=self.seed
        ).build(graph)
        labels = static.label_set

        n = graph.num_vertices
        self._adjacency = [set(int(v) for v in graph.neighbors(u)) for u in range(n)]
        self._order = labels.order.copy()
        self._rank = labels.rank.copy()
        self._hubs = []
        self._dists = []
        for v in range(n):
            hubs, dists = labels.vertex_label(v)
            self._hubs.append([int(h) for h in hubs])
            self._dists.append([int(d) for d in dists])
        self._dirty = set()
        self._frozen_labels = labels
        self._frozen_index = static
        # Rank-indexed scratch array for fixed-root queries (Section 4.5.1's
        # temp-array trick): attach a root's label once, then each query
        # costs O(|L(v)|) list lookups instead of a full two-label merge.
        # A numpy twin backs the vectorised batch evaluator; it is scattered
        # lazily, on the first batch evaluation under an attach, so scalar
        # -only attaches (every insert-path prune test, tiny deletion
        # regions) never pay for it.
        self._temp = [_TEMP_INF] * n
        self._temp_np = np.full(n, _TEMP_INF, dtype=np.int64)
        self._attached_root: Optional[int] = None
        self._np_touched: Optional[np.ndarray] = None
        return self

    @property
    def built(self) -> bool:
        """Whether the initial index has been built."""
        return self._hubs is not None

    def _require_built(self) -> None:
        if not self.built:
            raise IndexStateError("the index has not been built yet; call build()")

    @property
    def num_vertices(self) -> int:
        """Number of vertices covered by the index."""
        self._require_built()
        return len(self._hubs)

    # ------------------------------------------------------------------ #
    # Queries
    # ------------------------------------------------------------------ #

    def _validate_vertex(self, vertex: int) -> None:
        """Reject ids outside ``[0, n)`` — negative ids would silently hit
        Python's end-relative list indexing and answer for vertex ``n + id``."""
        if not (0 <= vertex < len(self._hubs)):
            raise VertexError(vertex, len(self._hubs))

    def _attach_root(self, root: int) -> List[int]:
        """Scatter ``root``'s label into the temp array; returns the touched ranks."""
        temp = self._temp
        touched = self._hubs[root]
        for hub_rank, distance in zip(touched, self._dists[root]):
            temp[hub_rank] = distance
        self._attached_root = root
        return touched

    def _detach_root(self, touched: List[int]) -> None:
        """Clear exactly the temp entries written by the last :meth:`_attach_root`."""
        temp = self._temp
        for hub_rank in touched:
            temp[hub_rank] = _TEMP_INF
        if self._np_touched is not None:
            self._temp_np[self._np_touched] = _TEMP_INF
            self._np_touched = None
        self._attached_root = None

    def _rooted_query(self, vertex: int, max_rank: int) -> int:
        """Minimum attached-root label distance via hubs of rank ``<= max_rank``.

        Equivalent to a two-label merge join of the currently attached root
        and ``vertex`` restricted to hubs of rank ``<= max_rank``, in
        ``O(|L(vertex)|)``; returns a value ``>= _TEMP_INF`` when no common
        hub qualifies.
        """
        temp = self._temp
        best = _TEMP_INF
        dists = self._dists[vertex]
        for i, hub_rank in enumerate(self._hubs[vertex]):
            if hub_rank > max_rank:
                break
            candidate = dists[i] + temp[hub_rank]
            if candidate < best:
                best = candidate
        return best

    #: Below this many probed label entries the scalar evaluator beats the
    #: vectorised one (per-call numpy overhead exceeds the interpreted loop;
    #: the breakeven sits at a few hundred entries).
    _BATCH_EVAL_MIN_ENTRIES = 256

    def _rooted_query_many(
        self, vertices: List[int], max_rank: int
    ) -> "Sequence[int]":
        """Batched rooted evaluator over the *attached* root (Section 4.5.1).

        The vectorised counterpart of :meth:`_rooted_query`: with a root's
        label scattered into the temp arrays by :meth:`_attach_root`, the
        contribution of every label entry of every queried vertex —
        restricted to hubs of rank ``<= max_rank`` — is evaluated with flat
        numpy operations.  This replaces the per-affected-hub Python probe
        loops that dominated :meth:`remove_edge`; tiny batches (most
        low-impact deletions) keep the scalar path, whose per-entry cost is
        lower than numpy's per-call overhead.

        Returns a sequence aligned with ``vertices`` (a plain list on the
        scalar fast path, an ``int64`` array on the vectorised one); entries
        are exactly :data:`_TEMP_INF` when no qualifying common hub exists
        (matching the scalar evaluator's sentinel).
        """
        count = len(vertices)
        if count == 0:
            return []
        hub_lists = [self._hubs[v] for v in vertices]
        total = 0
        for hubs in hub_lists:
            total += len(hubs)
        if total < self._BATCH_EVAL_MIN_ENTRIES:
            # Stay off numpy entirely: for the tiny batches that dominate
            # low-impact deletions, even the result-array allocation costs
            # more than the whole interpreted probe loop.
            rooted_query = self._rooted_query
            return [rooted_query(vertex, max_rank) for vertex in vertices]
        sizes = np.fromiter(map(len, hub_lists), dtype=np.int64, count=count)
        if self._np_touched is None:
            # First batch evaluation under this attach: mirror the root's
            # label into the numpy temp (one C-speed scatter).
            root_hubs = np.asarray(
                self._hubs[self._attached_root], dtype=np.int64
            )
            self._temp_np[root_hubs] = self._dists[self._attached_root]
            self._np_touched = root_hubs
        # Flatten through chain.from_iterable + fromiter: both stay in C, so
        # the cost per label entry is a few machine operations whatever the
        # per-vertex label sizes are (a per-entry Python generator or a
        # per-vertex asarray would put the interpreter back on the hot path).
        flat_hubs = np.fromiter(
            chain.from_iterable(hub_lists), dtype=np.int64, count=total
        )
        flat_dists = np.fromiter(
            chain.from_iterable(self._dists[v] for v in vertices),
            dtype=np.int64,
            count=total,
        )
        starts = np.zeros(count, dtype=np.int64)
        np.cumsum(sizes[:-1], out=starts[1:])
        # The batch kernel's segmented minimum returns exactly _TEMP_INF
        # where no hub qualifies.
        return rooted_probe(
            flat_hubs, flat_dists, starts, sizes, self._temp_np, max_rank, _TEMP_INF
        )

    def distance(self, s: int, t: int) -> float:
        """Exact shortest-path distance in the current (mutated) graph.

        Raises
        ------
        VertexError
            If either id is out of ``[0, n)`` (negative ids included).
        """
        self._require_built()
        self._validate_vertex(s)
        self._validate_vertex(t)
        if s == t:
            return 0.0
        return float(
            merge_join_query(self._hubs[s], self._dists[s], self._hubs[t], self._dists[t])
        )

    def distances(self, pairs: Iterable[Tuple[int, int]]) -> np.ndarray:
        """Distances for a batch of ``(s, t)`` pairs."""
        self._require_built()
        pairs = list(pairs)
        result = np.empty(len(pairs), dtype=np.float64)
        for i, (s, t) in enumerate(pairs):
            result[i] = self.distance(int(s), int(t))
        return result

    # ------------------------------------------------------------------ #
    # Updates
    # ------------------------------------------------------------------ #

    def _upsert(self, vertex: int, hub_rank: int, distance: int) -> bool:
        """Insert or improve the entry ``(hub_rank, distance)``; return whether changed."""
        hubs = self._hubs[vertex]
        dists = self._dists[vertex]
        position = bisect.bisect_left(hubs, hub_rank)
        if position < len(hubs) and hubs[position] == hub_rank:
            if dists[position] <= distance:
                return False
            dists[position] = distance
            self._dirty.add(vertex)
            return True
        hubs.insert(position, hub_rank)
        dists.insert(position, distance)
        self._dirty.add(vertex)
        return True

    def _pop_entry(self, vertex: int, hub_rank: int) -> Optional[int]:
        """Drop the entry for ``hub_rank`` from ``vertex``; return its old distance.

        Does not touch the dirty set: deletion repair pops entries wholesale
        and frequently re-inserts them unchanged, so it accounts for dirtiness
        itself by comparing old and new values (see :meth:`_repair_hub`).
        """
        hubs = self._hubs[vertex]
        position = bisect.bisect_left(hubs, hub_rank)
        if position >= len(hubs) or hubs[position] != hub_rank:
            return None
        distance = self._dists[vertex][position]
        del hubs[position]
        del self._dists[vertex][position]
        return distance

    def _resume_pruned_bfs(self, hub_rank: int, start: int, start_depth: int) -> None:
        """Resume a pruned BFS for hub ``hub_rank`` from ``start`` at ``start_depth``."""
        root = int(self._order[hub_rank])
        touched = self._attach_root(root)
        try:
            queue = deque([(start, start_depth)])
            seen: Dict[int, int] = {start: start_depth}
            while queue:
                vertex, depth = queue.popleft()
                # Prune when hubs of rank <= hub_rank already certify the distance.
                if self._rooted_query(vertex, hub_rank) <= depth:
                    continue
                if not self._upsert(vertex, hub_rank, depth):
                    continue
                for neighbor in self._adjacency[vertex]:
                    if neighbor not in seen or seen[neighbor] > depth + 1:
                        seen[neighbor] = depth + 1
                        queue.append((neighbor, depth + 1))
        finally:
            self._detach_root(touched)

    def insert_edge(self, a: int, b: int) -> None:
        """Insert the undirected edge ``(a, b)`` and repair the index.

        Inserting an edge that already exists (or a self loop) is a no-op.
        """
        self._require_built()
        n = self.num_vertices
        if not (0 <= a < n and 0 <= b < n):
            raise IndexBuildError(f"edge endpoints ({a}, {b}) out of range")
        if a == b or b in self._adjacency[a]:
            return
        self._adjacency[a].add(b)
        self._adjacency[b].add(a)

        # Propagate improvements from every hub of a through b, and vice versa.
        for hub_rank, dist in list(zip(self._hubs[a], self._dists[a])):
            self._resume_pruned_bfs(hub_rank, b, dist + 1)
        for hub_rank, dist in list(zip(self._hubs[b], self._dists[b])):
            self._resume_pruned_bfs(hub_rank, a, dist + 1)

    def insert_edges(self, edges: Iterable[Tuple[int, int]]) -> None:
        """Insert a stream of edges one by one."""
        for a, b in edges:
            self.insert_edge(int(a), int(b))

    def _bfs_distances(self, start: int) -> np.ndarray:
        """Hop distances from ``start`` over the current adjacency (-1 = unreachable)."""
        n = len(self._adjacency)
        dist = np.full(n, -1, dtype=np.int64)
        dist[start] = 0
        queue = deque([start])
        while queue:
            vertex = queue.popleft()
            next_depth = dist[vertex] + 1
            for neighbor in self._adjacency[vertex]:
                if dist[neighbor] < 0:
                    dist[neighbor] = next_depth
                    queue.append(neighbor)
        return dist

    def _collect_affected(
        self, root: int, far: int, far_distance: int
    ) -> Tuple[Dict[int, int], Dict[int, int]]:
        """Affected region of ``root`` for a deletion whose far endpoint is ``far``.

        Returns ``(affected, boundary)``: ``affected`` maps each vertex some
        old shortest ``root``-path of which went through the removed edge
        (the shortest-path-DAG descendants of ``far``) to its *old* distance;
        ``boundary`` maps their unaffected neighbours to old distances, which
        the deletion leaves intact — the surviving frontier the repair BFS
        resumes from.  Must run on pre-removal labels (old distances are read
        with label queries) but post-removal adjacency.
        """
        max_rank = len(self._hubs)
        old_dist: Dict[int, int] = {far: far_distance}
        affected: Dict[int, int] = {far: far_distance}
        # The affected region grows level-synchronously in old-distance
        # levels (DAG edges increase the old distance by exactly one), so
        # each level's unknown old distances are probed in one call to the
        # batched rooted evaluator instead of per-neighbour scalar loops.
        frontier = [far]
        depth = far_distance
        touched = self._attach_root(root)
        try:
            while frontier:
                candidates = dict.fromkeys(
                    neighbor
                    for vertex in frontier
                    for neighbor in self._adjacency[vertex]
                    if neighbor not in affected
                )
                unknown = [v for v in candidates if v not in old_dist]
                for vertex, value in zip(
                    unknown, self._rooted_query_many(unknown, max_rank)
                ):
                    old_dist[vertex] = int(value)
                frontier = []
                for neighbor in candidates:
                    if old_dist[neighbor] == depth + 1:
                        affected[neighbor] = depth + 1
                        frontier.append(neighbor)
                depth += 1
        finally:
            self._detach_root(touched)
        boundary: Dict[int, int] = {}
        for vertex in affected:
            for neighbor in self._adjacency[vertex]:
                if neighbor not in affected:
                    distance = old_dist[neighbor]
                    if distance < _TEMP_INF:
                        boundary[neighbor] = distance
        return affected, boundary

    def _repair_hub(
        self,
        hub_rank: int,
        affected: Dict[int, int],
        boundary: Dict[int, int],
        removed: Dict[int, int],
    ) -> None:
        """Resume a pruned BFS for ``hub_rank`` from the surviving frontier.

        Exact new distances for the affected region are computed by a
        multi-source BFS seeded with ``boundary`` distances (which the
        deletion did not change); each affected vertex then re-enters the
        label unless hubs of rank ``<= hub_rank`` — already repaired, since
        hubs are processed in increasing rank order — cover it.  ``removed``
        holds the entries phase 2 popped; a vertex is marked dirty only when
        its final entry differs from the one it had, so the conservative
        affected superset does not inflate the diff-freeze patch set.
        """
        root = int(self._order[hub_rank])
        heap: List[Tuple[int, int]] = []
        for vertex in affected:
            best = None
            for neighbor in self._adjacency[vertex]:
                if neighbor not in affected:
                    candidate = boundary[neighbor] + 1
                    if best is None or candidate < best:
                        best = candidate
            if best is not None:
                heapq.heappush(heap, (best, vertex))
        new_dist: Dict[int, int] = {}
        while heap:
            depth, vertex = heapq.heappop(heap)
            if vertex in new_dist:
                continue
            new_dist[vertex] = depth
            for neighbor in self._adjacency[vertex]:
                if neighbor in affected and neighbor not in new_dist:
                    heapq.heappush(heap, (depth + 1, neighbor))
        # One batched pass answers every keep-probe: the probes only read
        # labels (this hub's stale entries were all popped in phase 2), so
        # the later insertions cannot influence them.
        vertices = list(affected)
        touched = self._attach_root(root)
        try:
            bounds = self._rooted_query_many(vertices, hub_rank)
        finally:
            self._detach_root(touched)
        for vertex, bound in zip(vertices, bounds):
            depth = new_dist.get(vertex)
            keep = depth is not None and int(bound) > depth
            if keep:
                hubs = self._hubs[vertex]
                position = bisect.bisect_left(hubs, hub_rank)
                hubs.insert(position, hub_rank)
                self._dists[vertex].insert(position, depth)
            final = depth if keep else None
            if removed.get(vertex) != final:
                self._dirty.add(vertex)

    def remove_edge(self, a: int, b: int) -> None:
        """Remove the undirected edge ``(a, b)`` and repair the index.

        Removing an absent edge (or a self loop) is a no-op.  Stale label
        entries — those certifying shortest paths through the removed edge —
        are dropped, and every affected hub is repaired with a pruned BFS
        resumed from the surviving frontier of its affected region, in
        increasing rank order so prune tests only consult labels that are
        already exact for the new graph.
        """
        self._require_built()
        n = self.num_vertices
        if not (0 <= a < n and 0 <= b < n):
            raise IndexBuildError(f"edge endpoints ({a}, {b}) out of range")
        if a == b or b not in self._adjacency[a]:
            return

        # Old distances from both endpoints identify the hubs whose BFS tree
        # may have used the edge: those with |d(root, a) - d(root, b)| == 1.
        dist_a = self._bfs_distances(a)
        dist_b = self._bfs_distances(b)
        self._adjacency[a].remove(b)
        self._adjacency[b].remove(a)
        reach = (dist_a >= 0) & (dist_b >= 0)
        delta = dist_b - dist_a
        candidates = np.flatnonzero(reach & (np.abs(delta) == 1))
        if candidates.shape[0] == 0:
            return

        # Phase 1 (pre-removal labels): collect every hub's affected region
        # and surviving frontier before any entry is touched.
        plans: List[Tuple[int, Dict[int, int], Dict[int, int]]] = []
        for root in candidates:
            root = int(root)
            far = b if delta[root] == 1 else a
            affected, boundary = self._collect_affected(
                root, far, int(dist_b[root] if far == b else dist_a[root])
            )
            plans.append((int(self._rank[root]), affected, boundary))
        plans.sort(key=lambda plan: plan[0])

        # Phase 2: drop every stale entry, so no repair can consult one.
        removed_per_hub: List[Dict[int, int]] = []
        for hub_rank, affected, _ in plans:
            removed: Dict[int, int] = {}
            for vertex in affected:
                old = self._pop_entry(vertex, hub_rank)
                if old is not None:
                    removed[vertex] = old
            removed_per_hub.append(removed)

        # Phase 3: repair hubs in increasing rank order.
        for (hub_rank, affected, boundary), removed in zip(plans, removed_per_hub):
            self._repair_hub(hub_rank, affected, boundary, removed)

    def remove_edges(self, edges: Iterable[Tuple[int, int]]) -> None:
        """Remove a stream of edges one by one."""
        for a, b in edges:
            self.remove_edge(int(a), int(b))

    # ------------------------------------------------------------------ #
    # Snapshots
    # ------------------------------------------------------------------ #

    @property
    def dirty_vertices(self) -> FrozenSet[int]:
        """Vertices whose label changed since the last :meth:`freeze` (or build)."""
        self._require_built()
        return frozenset(self._dirty)

    def freeze(self, *, diff: bool = True) -> PrunedLandmarkLabeling:
        """Snapshot the current labels into an immutable static oracle.

        The returned :class:`~repro.core.index.PrunedLandmarkLabeling` owns
        frozen numpy copies of the labels, so later :meth:`insert_edge` /
        :meth:`remove_edge` calls on this dynamic oracle do not affect it.
        This is the bridge between the writable index and the lock-free read
        path of the serving subsystem: updates are applied here, then
        :meth:`freeze` publishes an immutable view (see
        :class:`repro.serving.snapshot.SnapshotManager`).

        With ``diff`` (the default), only the labels of vertices dirtied
        since the previous freeze are patched into the previously frozen
        label set (:meth:`~repro.core.labels.LabelSet.patched`) — cost
        proportional to the changed labels plus a few block copies, instead
        of the O(total label entries) re-materialisation of a full freeze.
        ``diff=False`` forces the full path (the benchmark baseline).
        """
        self._require_built()
        from repro.core.bitparallel import BitParallelLabels

        n = len(self._hubs)
        kernel = None
        # Patching costs more per vertex than bulk re-materialisation; when a
        # mutation burst has dirtied a large share of the graph, the full
        # path is the faster one.
        if diff and len(self._dirty) > n // 4:
            diff = False
        if diff and self._frozen_labels is not None:
            labels = self._frozen_labels.patched(
                {
                    vertex: (self._hubs[vertex], self._dists[vertex])
                    for vertex in self._dirty
                }
            )
            # The previous snapshot's batch kernel (if the serving layer
            # built it) is patched the same way, not rebuilt from scratch.
            base_kernel = (
                self._frozen_index._batch_kernel
                if self._frozen_index is not None
                else None
            )
            if base_kernel is not None:
                if labels is self._frozen_labels:
                    kernel = base_kernel
                else:
                    kernel = base_kernel.patched(labels, self._dirty)
        else:
            labels = LabelSet.from_lists(self._hubs, self._dists, self._order.copy())
        self._frozen_labels = labels
        self._dirty = set()

        static = PrunedLandmarkLabeling(
            ordering=self.ordering, num_bit_parallel_roots=0, seed=self.seed
        )
        static._labels = labels
        static._bit_parallel = BitParallelLabels.make_empty(n)
        static._order = labels.order
        static._graph = None
        static._batch_kernel = kernel
        self._frozen_index = static
        return static

    def graph_snapshot(self) -> Graph:
        """The current (inserted-into) graph as an immutable CSR :class:`Graph`."""
        self._require_built()
        edges = [
            (u, v)
            for u in range(len(self._adjacency))
            for v in self._adjacency[u]
            if u < v
        ]
        return Graph(len(self._adjacency), edges)

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #

    def average_label_size(self) -> float:
        """Average number of label entries per vertex."""
        self._require_built()
        n = len(self._hubs)
        if n == 0:
            return 0.0
        return sum(len(h) for h in self._hubs) / n

    def label_of(self, vertex: int) -> List[Tuple[int, int]]:
        """Label entries of one vertex as ``(hub_vertex, distance)`` pairs."""
        self._require_built()
        self._validate_vertex(vertex)
        return [
            (int(self._order[h]), int(d))
            for h, d in zip(self._hubs[vertex], self._dists[vertex])
        ]
