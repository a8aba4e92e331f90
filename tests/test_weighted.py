"""Tests for the weighted (pruned Dijkstra) variant."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.weighted import WeightedPrunedLandmarkLabeling
from repro.errors import IndexBuildError, IndexStateError, VertexError
from repro.generators import assign_random_weights, barabasi_albert_graph, grid_graph
from repro.graph.csr import Graph
from repro.graph.traversal import dijkstra_distances
from tests.conftest import sample_pairs


class TestWeightedIndex:
    def test_unbuilt_raises(self):
        oracle = WeightedPrunedLandmarkLabeling()
        with pytest.raises(IndexStateError):
            oracle.distance(0, 1)

    def test_rejects_directed(self):
        graph = Graph(3, [(0, 1)], directed=True)
        with pytest.raises(IndexBuildError):
            WeightedPrunedLandmarkLabeling().build(graph)

    def test_grid_exactness(self, small_weighted_graph):
        oracle = WeightedPrunedLandmarkLabeling().build(small_weighted_graph)
        for source in range(0, small_weighted_graph.num_vertices, 7):
            truth = dijkstra_distances(small_weighted_graph, source)
            for target in range(small_weighted_graph.num_vertices):
                assert np.isclose(oracle.distance(source, target), truth[target]) or (
                    np.isinf(truth[target]) and np.isinf(oracle.distance(source, target))
                )

    def test_weighted_social_graph_exactness(self):
        graph = assign_random_weights(
            barabasi_albert_graph(150, 2, seed=3), low=1, high=9, seed=3
        )
        oracle = WeightedPrunedLandmarkLabeling().build(graph)
        for s, t in sample_pairs(graph, 150, seed=4):
            truth = dijkstra_distances(graph, s)[t]
            got = oracle.distance(s, t)
            assert np.isclose(got, truth) or (np.isinf(got) and np.isinf(truth))

    def test_unweighted_graph_also_works(self, small_social_graph):
        oracle = WeightedPrunedLandmarkLabeling().build(small_social_graph)
        truth = dijkstra_distances(small_social_graph, 0)
        for t in range(0, small_social_graph.num_vertices, 11):
            assert np.isclose(oracle.distance(0, t), truth[t])

    def test_self_distance(self, small_weighted_graph):
        oracle = WeightedPrunedLandmarkLabeling().build(small_weighted_graph)
        assert oracle.distance(5, 5) == 0.0

    def test_disconnected_inf(self):
        graph = Graph(4, [(0, 1), (2, 3)], weights=[1.0, 2.0])
        oracle = WeightedPrunedLandmarkLabeling().build(graph)
        assert oracle.distance(0, 3) == float("inf")

    def test_batch_queries(self, small_weighted_graph):
        oracle = WeightedPrunedLandmarkLabeling().build(small_weighted_graph)
        pairs = sample_pairs(small_weighted_graph, 20, seed=5)
        batch = oracle.distances(pairs)
        assert batch.shape[0] == 20

    def test_label_introspection(self, small_weighted_graph):
        oracle = WeightedPrunedLandmarkLabeling().build(small_weighted_graph)
        assert oracle.average_label_size() >= 1.0
        assert oracle.index_size_bytes() > 0
        assert oracle.build_seconds > 0
        sizes = oracle.label_set.label_sizes()
        assert sizes.shape[0] == small_weighted_graph.num_vertices

    def test_explicit_order(self, small_weighted_graph):
        n = small_weighted_graph.num_vertices
        oracle = WeightedPrunedLandmarkLabeling().build(
            small_weighted_graph, order=list(range(n))
        )
        truth = dijkstra_distances(small_weighted_graph, 3)
        assert np.isclose(oracle.distance(3, n - 1), truth[n - 1])

    def test_bad_order_rejected(self, small_weighted_graph):
        with pytest.raises(IndexBuildError):
            WeightedPrunedLandmarkLabeling().build(
                small_weighted_graph, order=[0, 0, 1]
            )

    def test_pruning_keeps_labels_small(self):
        graph = grid_graph(8, 8, weighted=True, seed=1)
        oracle = WeightedPrunedLandmarkLabeling().build(graph)
        # Far below the n entries per vertex a naive scheme would store.
        assert oracle.average_label_size() < graph.num_vertices / 2

    @pytest.mark.parametrize("s, t", [(-1, 0), (0, -1), (0, 5), (5, 0), (-1, -1)])
    def test_out_of_range_vertex_raises(self, path_graph, s, t):
        oracle = WeightedPrunedLandmarkLabeling().build(path_graph)
        with pytest.raises(VertexError):
            oracle.distance(s, t)


class TestWeightedProperties:
    @settings(max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(
        seed=st.integers(min_value=0, max_value=1_000),
        n=st.integers(min_value=5, max_value=30),
    )
    def test_random_weighted_graphs_match_dijkstra(self, seed, n):
        rng = np.random.default_rng(seed)
        num_edges = int(rng.integers(n - 1, 3 * n))
        edges = [
            (int(rng.integers(0, n)), int(rng.integers(0, n))) for _ in range(num_edges)
        ]
        weights = [float(w) for w in rng.uniform(0.5, 5.0, size=num_edges)]
        graph = Graph(n, edges, weights=weights)
        oracle = WeightedPrunedLandmarkLabeling().build(graph)
        s = int(rng.integers(0, n))
        truth = dijkstra_distances(graph, s)
        for t in range(n):
            got = oracle.distance(s, t)
            assert np.isclose(got, truth[t]) or (np.isinf(got) and np.isinf(truth[t]))
