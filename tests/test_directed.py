"""Tests for the directed (IN/OUT labels) variant."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.directed import DirectedPrunedLandmarkLabeling
from repro.core.pruned import build_pruned_labels
from repro.errors import IndexBuildError, IndexStateError, VertexError
from repro.generators import barabasi_albert_graph, holme_kim_graph, orient_edges
from repro.graph.csr import Graph
from repro.graph.ordering import compute_order
from repro.graph.traversal import UNREACHABLE, bfs_distances
from tests.conftest import sample_pairs


def true_directed_distance(graph: Graph, s: int, t: int) -> float:
    d = bfs_distances(graph, s)[t]
    return float("inf") if d == UNREACHABLE else float(d)


class TestDirectedIndex:
    def test_unbuilt_raises(self):
        oracle = DirectedPrunedLandmarkLabeling()
        with pytest.raises(IndexStateError):
            oracle.distance(0, 1)

    def test_rejects_undirected(self, path_graph):
        with pytest.raises(IndexBuildError):
            DirectedPrunedLandmarkLabeling().build(path_graph)

    def test_simple_chain(self):
        graph = Graph(4, [(0, 1), (1, 2), (2, 3)], directed=True)
        oracle = DirectedPrunedLandmarkLabeling().build(graph)
        assert oracle.distance(0, 3) == 3.0
        assert oracle.distance(3, 0) == float("inf")
        assert oracle.distance(1, 1) == 0.0

    def test_cycle(self):
        graph = Graph(4, [(0, 1), (1, 2), (2, 3), (3, 0)], directed=True)
        oracle = DirectedPrunedLandmarkLabeling().build(graph)
        assert oracle.distance(0, 3) == 3.0
        assert oracle.distance(3, 0) == 1.0

    def test_asymmetry_respected(self):
        graph = orient_edges(
            barabasi_albert_graph(150, 2, seed=1), both_directions_probability=0.2, seed=1
        )
        oracle = DirectedPrunedLandmarkLabeling().build(graph)
        asymmetric_found = False
        for s, t in sample_pairs(graph, 200, seed=2):
            forward = oracle.distance(s, t)
            backward = oracle.distance(t, s)
            if forward != backward:
                asymmetric_found = True
                break
        assert asymmetric_found

    def test_exactness_random_directed_graphs(self):
        for seed in range(3):
            graph = orient_edges(
                barabasi_albert_graph(120, 2, seed=seed),
                both_directions_probability=0.3,
                seed=seed,
            )
            oracle = DirectedPrunedLandmarkLabeling().build(graph)
            for s, t in sample_pairs(graph, 150, seed=seed):
                assert oracle.distance(s, t) == true_directed_distance(graph, s, t)

    def test_batch_and_introspection(self):
        graph = Graph(5, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)], directed=True)
        oracle = DirectedPrunedLandmarkLabeling().build(graph)
        batch = oracle.distances([(0, 4), (4, 0)])
        assert list(batch) == [4.0, 1.0]
        assert oracle.average_label_size() > 0
        assert oracle.index_size_bytes() > 0
        assert oracle.build_seconds > 0
        assert oracle.out_labels.num_vertices == 5
        assert oracle.in_labels.num_vertices == 5

    def test_labels_sorted(self):
        graph = orient_edges(barabasi_albert_graph(80, 2, seed=5), seed=5)
        oracle = DirectedPrunedLandmarkLabeling().build(graph)
        for v in range(graph.num_vertices):
            for labels in (oracle.out_labels, oracle.in_labels):
                hubs, _ = labels.vertex_label(v)
                if hubs.shape[0] > 1:
                    assert np.all(np.diff(hubs) > 0)

    def test_bad_order_rejected(self):
        graph = Graph(3, [(0, 1)], directed=True)
        with pytest.raises(IndexBuildError):
            DirectedPrunedLandmarkLabeling().build(graph, order=[0, 1, 1])

    @pytest.mark.parametrize("s, t", [(-1, 0), (0, -1), (0, 5), (5, 0), (-1, -1)])
    def test_out_of_range_vertex_raises(self, s, t):
        graph = Graph(5, [(0, 1), (1, 2), (2, 3), (3, 4)], directed=True)
        oracle = DirectedPrunedLandmarkLabeling().build(graph)
        with pytest.raises(VertexError):
            oracle.distance(s, t)

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_both_directions_give_the_undirected_labels(self, seed):
        """With every edge in both directions, each pruned BFS of the pair is
        the undirected one, so ``L_IN`` and ``L_OUT`` both equal its labels."""
        undirected = holme_kim_graph(250, 3, 0.5, seed=seed)
        edges = list(undirected.edges())
        digraph = Graph(
            undirected.num_vertices, edges + [(b, a) for a, b in edges], directed=True
        )
        order = compute_order(undirected, "degree")
        expected, _ = build_pruned_labels(undirected, order)
        oracle = DirectedPrunedLandmarkLabeling().build(digraph, order=order)
        for labels in (oracle.in_labels, oracle.out_labels):
            assert np.array_equal(labels.indptr, expected.indptr)
            assert np.array_equal(labels.hub_ranks, expected.hub_ranks)
            assert np.array_equal(labels.distances, expected.distances)


class TestDirectedProperties:
    @settings(max_examples=30, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(
        seed=st.integers(min_value=0, max_value=1_000),
        n=st.integers(min_value=3, max_value=25),
    )
    def test_random_digraphs_match_bfs(self, seed, n):
        rng = np.random.default_rng(seed)
        num_edges = int(rng.integers(0, 4 * n))
        edges = [
            (int(rng.integers(0, n)), int(rng.integers(0, n))) for _ in range(num_edges)
        ]
        graph = Graph(n, edges, directed=True)
        oracle = DirectedPrunedLandmarkLabeling().build(graph)
        for _ in range(10):
            s, t = int(rng.integers(0, n)), int(rng.integers(0, n))
            assert oracle.distance(s, t) == true_directed_distance(graph, s, t)
