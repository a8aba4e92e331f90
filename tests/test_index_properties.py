"""Property-based tests (hypothesis) for the core invariants of the index.

These are the heavy-duty correctness guarantees: on arbitrary random graphs,
for arbitrary orderings and bit-parallel settings, the pruned-landmark-
labeling oracle must agree exactly with a BFS ground truth, its labels must
keep their structural invariants, and the 2-hop query must never underestimate
a distance for any (even partially built) label set.
"""

from __future__ import annotations

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.bitparallel import build_bit_parallel_labels
from repro.core.index import PrunedLandmarkLabeling
from repro.core.pruned import build_pruned_labels
from repro.graph.csr import Graph
from repro.graph.ordering import compute_order
from repro.graph.traversal import UNREACHABLE, bfs_distances

# ----------------------------------------------------------------------------
# Graph strategies
# ----------------------------------------------------------------------------


@st.composite
def random_graphs(draw, max_vertices: int = 40, max_extra_edges: int = 80):
    """Arbitrary small undirected graphs (possibly disconnected, with isolates)."""
    n = draw(st.integers(min_value=2, max_value=max_vertices))
    num_edges = draw(st.integers(min_value=0, max_value=max_extra_edges))
    edges = draw(
        st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=n - 1),
                st.integers(min_value=0, max_value=n - 1),
            ),
            min_size=0,
            max_size=num_edges,
        )
    )
    return Graph(n, edges)


@st.composite
def graphs_with_pairs(draw, max_vertices: int = 40):
    graph = draw(random_graphs(max_vertices=max_vertices))
    n = graph.num_vertices
    pairs = draw(
        st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=n - 1),
                st.integers(min_value=0, max_value=n - 1),
            ),
            min_size=1,
            max_size=12,
        )
    )
    return graph, pairs


def true_distance(graph: Graph, s: int, t: int) -> float:
    d = bfs_distances(graph, s)[t]
    return float("inf") if d == UNREACHABLE else float(d)


# ----------------------------------------------------------------------------
# Properties
# ----------------------------------------------------------------------------

COMMON_SETTINGS = dict(
    max_examples=40,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


class TestExactnessProperties:
    @settings(**COMMON_SETTINGS)
    @given(data=graphs_with_pairs(), ordering=st.sampled_from(["degree", "random"]))
    def test_index_matches_bfs(self, data, ordering):
        graph, pairs = data
        index = PrunedLandmarkLabeling(ordering=ordering, seed=0).build(graph)
        for s, t in pairs:
            assert index.distance(s, t) == true_distance(graph, s, t)

    @settings(**COMMON_SETTINGS)
    @given(data=graphs_with_pairs(), num_bp=st.integers(min_value=1, max_value=6))
    def test_index_with_bit_parallel_matches_bfs(self, data, num_bp):
        graph, pairs = data
        index = PrunedLandmarkLabeling(num_bit_parallel_roots=num_bp).build(graph)
        for s, t in pairs:
            assert index.distance(s, t) == true_distance(graph, s, t)

    @settings(**COMMON_SETTINGS)
    @given(data=graphs_with_pairs())
    def test_symmetry(self, data):
        """Undirected distances are symmetric through the index."""
        graph, pairs = data
        index = PrunedLandmarkLabeling().build(graph)
        for s, t in pairs:
            assert index.distance(s, t) == index.distance(t, s)


class TestLabelInvariants:
    @settings(**COMMON_SETTINGS)
    @given(graph=random_graphs())
    def test_labels_sorted_and_unique(self, graph):
        order = compute_order(graph, "degree")
        labels, _ = build_pruned_labels(graph, order)
        for v in range(labels.num_vertices):
            hubs, dists = labels.vertex_label(v)
            if hubs.shape[0] > 1:
                assert np.all(np.diff(hubs) > 0)
            # Label distances are real distances to the hub vertex.
            truth = bfs_distances(graph, v)
            for hub_rank, distance in zip(hubs, dists):
                hub_vertex = int(labels.order[hub_rank])
                assert truth[hub_vertex] == distance

    @settings(**COMMON_SETTINGS)
    @given(graph=random_graphs())
    def test_hub_rank_never_exceeds_own_rank(self, graph):
        """A vertex is only labelled by hubs processed no later than itself."""
        order = compute_order(graph, "degree")
        labels, _ = build_pruned_labels(graph, order)
        rank = labels.rank
        for v in range(labels.num_vertices):
            hubs, _ = labels.vertex_label(v)
            if hubs.shape[0]:
                assert hubs.max() <= rank[v] or hubs.min() <= rank[v]
                # Strongest form: every hub rank is at most the vertex's own rank.
                assert np.all(hubs <= rank[v])

    @settings(**COMMON_SETTINGS)
    @given(graph=random_graphs(), num_bp=st.integers(min_value=0, max_value=4))
    def test_query_never_underestimates(self, graph, num_bp):
        """2-hop queries over any label set are upper bounds on true distances."""
        order = compute_order(graph, "degree")
        bp = build_bit_parallel_labels(graph, order, num_bp)
        labels, _ = build_pruned_labels(graph, order, bit_parallel=bp)
        rng = np.random.default_rng(0)
        n = graph.num_vertices
        for _ in range(10):
            s, t = int(rng.integers(0, n)), int(rng.integers(0, n))
            truth = true_distance(graph, s, t)
            assert labels.query(s, t) >= truth
            assert bp.query(s, t) >= truth

    @settings(**COMMON_SETTINGS)
    @given(
        graph=random_graphs(),
        num_bp=st.sampled_from([0, 16]),
        seed=st.integers(min_value=0, max_value=2**16),
    )
    def test_every_entry_has_a_neighbour_one_step_closer(self, graph, num_bp, seed):
        """Each entry ``(u, r, d > 0)`` has a neighbour with entry ``(r, d - 1)``:
        the parent a path climb steps to, whatever the order and BP roots."""
        order = np.random.default_rng(seed).permutation(graph.num_vertices)
        bp = build_bit_parallel_labels(graph, order, num_bp)
        labels, _ = build_pruned_labels(graph, order, bit_parallel=bp)
        entries = [
            dict(zip(*(a.tolist() for a in labels.vertex_label(v))))
            for v in range(labels.num_vertices)
        ]
        for u, label in enumerate(entries):
            for hub_rank, distance in label.items():
                if distance > 0:
                    assert any(
                        entries[int(w)].get(hub_rank) == distance - 1
                        for w in graph.neighbors(u)
                    )


class TestBitParallelProperties:
    @settings(**COMMON_SETTINGS)
    @given(graph=random_graphs(max_vertices=30))
    def test_bit_parallel_distances_exact_from_root(self, graph):
        order = compute_order(graph, "degree")
        bp = build_bit_parallel_labels(graph, order, 2)
        for i in range(bp.num_roots):
            root = int(bp.roots[i])
            truth = bfs_distances(graph, root)
            stored = bp.dist[i]
            reachable = truth != UNREACHABLE
            assert np.array_equal(stored[reachable], truth[reachable].astype(np.uint16))
            assert np.all(stored[~reachable] == np.iinfo(np.uint16).max)


class TestDeterminism:
    @settings(**COMMON_SETTINGS)
    @given(graph=random_graphs())
    def test_same_seed_same_index(self, graph):
        a = PrunedLandmarkLabeling(ordering="degree", num_bit_parallel_roots=2).build(
            graph
        )
        b = PrunedLandmarkLabeling(ordering="degree", num_bit_parallel_roots=2).build(
            graph
        )
        assert np.array_equal(a.label_set.hub_ranks, b.label_set.hub_ranks)
        assert np.array_equal(a.label_set.distances, b.label_set.distances)
        assert np.array_equal(a.label_set.indptr, b.label_set.indptr)
