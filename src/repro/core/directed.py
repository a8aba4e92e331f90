"""Directed graphs: pruned landmark labeling with IN/OUT labels (Section 6).

For a directed graph the oracle stores two labels per vertex:

* ``L_OUT(v)`` — pairs ``(u, d(v, u))``: hubs reachable *from* ``v``.
* ``L_IN(v)``  — pairs ``(u, d(u, v))``: hubs that can reach ``v``.

The distance from ``s`` to ``t`` is the minimum of ``d(s, u) + d(u, t)`` over
hubs ``u`` common to ``L_OUT(s)`` and ``L_IN(t)``.  Each root performs two
pruned BFSs, one along out-edges (filling ``L_IN`` of reached vertices) and
one along in-edges (filling ``L_OUT``), with the prune test of each direction
using the opposite label side — mirroring Algorithm 1 exactly.  Both are the
shared :func:`~repro.core.pruned.pruned_bfs`, with the root's opposite side
attached to the shared :class:`~repro.core.query.RootedQueryEvaluator`.
"""

from __future__ import annotations

import time
from typing import Iterable, Optional, Sequence, Tuple

import numpy as np

from repro.core.index import validate_vertex
from repro.core.labels import LabelAccumulator, LabelSet, intersect_query
from repro.core.pruned import pruned_bfs, resolve_order
from repro.core.query import RootedQueryEvaluator
from repro.errors import IndexBuildError, IndexStateError
from repro.graph.csr import Graph

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
        order_array = resolve_order(graph, order, ordering=self.ordering, seed=self.seed)
        n = graph.num_vertices

        start_time = time.perf_counter()
        # labels_out[v]: hubs u with d(v, u); labels_in[v]: hubs u with d(u, v).
        labels_out = LabelAccumulator(n)
        labels_in = LabelAccumulator(n)
        evaluator = RootedQueryEvaluator(n)
        for k in range(n):
            root = int(order_array[k])
            # Forward: d(root, u) along out-edges, pruned by L_OUT(root) and
            # L_IN(u), extending L_IN(u).  Backward: the sides swap.
            for attached, extended, indptr, adjacency in (
                (labels_out, labels_in, graph.indptr, graph.adjacency),
                (labels_in, labels_out, graph.rev_indptr, graph.rev_adjacency),
            ):
                evaluator.attach(attached, root)
                pruned_bfs(indptr, adjacency, root, k, evaluator, extended)
                evaluator.detach()

        self._labels_out = labels_out.freeze(order_array)
        self._labels_in = labels_in.freeze(order_array)
        self._graph = graph
        self._order = order_array
        self._build_seconds = time.perf_counter() - start_time
        return self

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
        """Exact directed distance from ``s`` to ``t`` (``inf`` if unreachable).

        Raises :class:`~repro.errors.VertexError` for an id out of ``[0, n)``.
        """
        self._require_built()
        validate_vertex(s, self._labels_in.num_vertices)
        validate_vertex(t, self._labels_in.num_vertices)
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
