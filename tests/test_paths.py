"""Tests for shortest-path reconstruction (PathPrunedLandmarkLabeling)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.paths import PathPrunedLandmarkLabeling
from repro.core.pruned import build_pruned_labels
from repro.errors import IndexBuildError, IndexStateError, VertexError
from repro.generators import grid_graph, holme_kim_graph
from repro.graph.csr import Graph
from repro.graph.ordering import compute_order
from repro.graph.traversal import bfs_distance
from tests.conftest import random_test_graphs, sample_pairs


def assert_valid_path(graph: Graph, path, s: int, t: int, expected_length: float):
    """A returned path must start at s, end at t, follow edges, and be shortest."""
    assert path[0] == s
    assert path[-1] == t
    assert len(path) - 1 == expected_length
    for a, b in zip(path, path[1:]):
        assert graph.has_edge(a, b)
    # Shortest paths over simple graphs never repeat vertices.
    assert len(set(path)) == len(path)


class TestPathReconstruction:
    def test_unbuilt_raises(self):
        with pytest.raises(IndexStateError):
            PathPrunedLandmarkLabeling().distance(0, 1)

    def test_rejects_directed(self):
        graph = Graph(3, [(0, 1)], directed=True)
        with pytest.raises(IndexBuildError):
            PathPrunedLandmarkLabeling().build(graph)

    def test_path_on_chain(self, path_graph):
        oracle = PathPrunedLandmarkLabeling().build(path_graph)
        assert oracle.shortest_path(0, 4) == [0, 1, 2, 3, 4]
        assert oracle.shortest_path(4, 0) == [4, 3, 2, 1, 0]

    def test_trivial_path(self, path_graph):
        oracle = PathPrunedLandmarkLabeling().build(path_graph)
        assert oracle.shortest_path(2, 2) == [2]
        assert oracle.shortest_path(2, 3) == [2, 3]

    def test_disconnected_returns_none(self, disconnected_graph):
        oracle = PathPrunedLandmarkLabeling().build(disconnected_graph)
        assert oracle.shortest_path(0, 4) is None
        assert oracle.distance(0, 4) == float("inf")

    def test_distance_matches_bfs(self, medium_social_graph):
        oracle = PathPrunedLandmarkLabeling().build(medium_social_graph)
        for s, t in sample_pairs(medium_social_graph, 100, seed=7):
            assert oracle.distance(s, t) == bfs_distance(medium_social_graph, s, t)

    def test_paths_are_valid_shortest_paths(self):
        for graph in random_test_graphs(3, seed=8):
            oracle = PathPrunedLandmarkLabeling().build(graph)
            for s, t in sample_pairs(graph, 60, seed=9):
                expected = bfs_distance(graph, s, t)
                path = oracle.shortest_path(s, t)
                if not np.isfinite(expected):
                    assert path is None
                    continue
                assert path is not None
                assert_valid_path(graph, path, s, t, expected)

    def test_paths_through_example_graph(self, paper_example_graph):
        oracle = PathPrunedLandmarkLabeling().build(paper_example_graph)
        for s in range(paper_example_graph.num_vertices):
            for t in range(paper_example_graph.num_vertices):
                expected = bfs_distance(paper_example_graph, s, t)
                path = oracle.shortest_path(s, t)
                assert path is not None
                assert_valid_path(paper_example_graph, path, s, t, expected)

    def test_average_label_size(self, small_social_graph):
        oracle = PathPrunedLandmarkLabeling().build(small_social_graph)
        assert oracle.average_label_size() >= 1.0
        assert oracle.build_seconds > 0

    def test_bad_order_rejected(self, path_graph):
        with pytest.raises(IndexBuildError):
            PathPrunedLandmarkLabeling().build(path_graph, order=[0, 1, 2, 3, 3])

    def test_labels_are_the_plain_pruned_labels(self):
        for graph in random_test_graphs(3, seed=12) + [holme_kim_graph(300, 3, 0.5, seed=4)]:
            oracle = PathPrunedLandmarkLabeling().build(graph)
            labels, _ = build_pruned_labels(graph, compute_order(graph, "degree"))
            built = oracle.label_set
            assert np.array_equal(built.indptr, labels.indptr)
            assert np.array_equal(built.hub_ranks, labels.hub_ranks)
            assert np.array_equal(built.distances, labels.distances)
            assert np.array_equal(built.order, labels.order)
            assert oracle.bit_parallel_labels.empty()

    def test_grid_paths_pin_the_tie_breaks(self):
        """On a grid shortest paths tie everywhere; these are the paths stored
        parent pointers (the first-discovering, smallest-id parent) give."""
        oracle = PathPrunedLandmarkLabeling().build(grid_graph(5, 5))
        expected = [
            ((0, 24), [0, 1, 6, 7, 8, 9, 14, 19, 24]),
            ((24, 0), [24, 19, 14, 9, 8, 7, 6, 1, 0]),
            ((4, 20), [4, 3, 2, 1, 6, 5, 10, 15, 20]),
            ((20, 4), [20, 15, 10, 5, 6, 1, 2, 3, 4]),
            ((1, 23), [1, 6, 7, 8, 13, 18, 23]),
            ((6, 18), [6, 7, 8, 13, 18]),
            ((10, 14), [10, 11, 12, 13, 14]),
            ((2, 22), [2, 7, 12, 17, 22]),
            ((3, 15), [3, 2, 1, 6, 5, 10, 15]),
        ]
        for (s, t), path in expected:
            assert oracle.shortest_path(s, t) == path


class TestOutOfRangeVertices:
    @pytest.mark.parametrize("s, t", [(-1, 0), (0, -1), (0, 5), (5, 0), (-1, -1)])
    def test_distance_and_path_raise(self, path_graph, s, t):
        oracle = PathPrunedLandmarkLabeling().build(path_graph)
        with pytest.raises(VertexError):
            oracle.distance(s, t)
        with pytest.raises(VertexError):
            oracle.shortest_path(s, t)

    def test_distance_is_float(self, path_graph):
        oracle = PathPrunedLandmarkLabeling().build(path_graph)
        assert type(oracle.distance(0, 4)) is float
        assert oracle.distance(0, 4) == 4.0
