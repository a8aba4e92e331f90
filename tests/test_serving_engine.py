"""Tests for the batched query engine and the vectorised batch kernel."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.index import PrunedLandmarkLabeling
from repro.core.query import BatchQueryKernel
from repro.errors import VertexError
from repro.graph.csr import Graph
from repro.serving import BatchQueryEngine
from tests.conftest import random_test_graphs


def scalar_reference(index, sources, targets):
    return np.array(
        [index.distance(int(s), int(t)) for s, t in zip(sources, targets)],
        dtype=np.float64,
    )


class TestDistanceBatch:
    @pytest.mark.parametrize("num_bp", [0, 3])
    def test_matches_scalar_on_random_graphs(self, num_bp):
        rng = np.random.default_rng(7)
        for graph in random_test_graphs(4, seed=23):
            index = PrunedLandmarkLabeling(num_bit_parallel_roots=num_bp).build(graph)
            n = graph.num_vertices
            sources = rng.integers(0, n, size=300)
            targets = rng.integers(0, n, size=300)
            batch = index.distance_batch(sources, targets)
            assert np.array_equal(batch, scalar_reference(index, sources, targets))

    def test_property_random_sparse_graphs(self):
        # Includes disconnected graphs and graphs with empty labels.
        for seed in range(20):
            rng = np.random.default_rng(seed)
            n = int(rng.integers(3, 40))
            edges = [
                (int(rng.integers(0, n)), int(rng.integers(0, n)))
                for _ in range(int(rng.integers(0, 2 * n)))
            ]
            graph = Graph(n, edges)
            index = PrunedLandmarkLabeling(
                num_bit_parallel_roots=int(rng.integers(0, 3))
            ).build(graph)
            sources = rng.integers(0, n, size=120)
            targets = rng.integers(0, n, size=120)
            batch = index.distance_batch(sources, targets)
            assert np.array_equal(batch, scalar_reference(index, sources, targets))

    def test_self_pairs_are_zero(self, small_social_graph):
        index = PrunedLandmarkLabeling().build(small_social_graph)
        result = index.distance_batch([3, 5, 0], [3, 5, 0])
        assert np.array_equal(result, np.zeros(3))

    def test_disconnected_pairs_are_inf(self, disconnected_graph):
        index = PrunedLandmarkLabeling().build(disconnected_graph)
        result = index.distance_batch([0, 0, 3], [3, 5, 5])
        assert np.all(np.isinf(result))

    def test_out_of_range_raises_vertex_error(self, small_social_graph):
        index = PrunedLandmarkLabeling().build(small_social_graph)
        n = small_social_graph.num_vertices
        with pytest.raises(VertexError):
            index.distance_batch([0], [n])
        with pytest.raises(VertexError):
            index.distance_batch([-1], [0])

    def test_empty_batch(self, small_social_graph):
        index = PrunedLandmarkLabeling().build(small_social_graph)
        assert index.distance_batch([], []).shape == (0,)
        assert index.distances([]).shape == (0,)

    def test_chunking_does_not_change_results(self, medium_social_graph):
        index = PrunedLandmarkLabeling(num_bit_parallel_roots=2).build(
            medium_social_graph
        )
        rng = np.random.default_rng(3)
        n = medium_social_graph.num_vertices
        sources = rng.integers(0, n, size=500)
        targets = rng.integers(0, n, size=500)
        whole = index.distance_batch(sources, targets)
        chunked = index.distance_batch(sources, targets, chunk_size=64)
        assert np.array_equal(whole, chunked)

    def test_distances_routes_through_batch_path(self, small_social_graph):
        index = PrunedLandmarkLabeling().build(small_social_graph)
        pairs = [(0, 5), (3, 7), (2, 2)]
        expected = scalar_reference(index, [0, 3, 2], [5, 7, 2])
        assert np.array_equal(index.distances(pairs), expected)


class TestBatchQueryKernel:
    def test_matches_label_set_query(self, medium_social_graph):
        index = PrunedLandmarkLabeling(num_bit_parallel_roots=0).build(
            medium_social_graph
        )
        kernel = BatchQueryKernel(index.label_set)
        rng = np.random.default_rng(11)
        n = medium_social_graph.num_vertices
        sources = rng.integers(0, n, size=200)
        targets = rng.integers(0, n, size=200)
        got = kernel.query_pairs(sources, targets)
        expected = np.array(
            [index.label_set.query(int(s), int(t)) for s, t in zip(sources, targets)]
        )
        assert np.array_equal(got, expected)

    def test_length_mismatch_rejected(self, small_social_graph):
        index = PrunedLandmarkLabeling().build(small_social_graph)
        kernel = BatchQueryKernel(index.label_set)
        with pytest.raises(ValueError):
            kernel.query_pairs(np.array([0, 1]), np.array([2]))


class TestBatchQueryEngine:
    def test_requires_built_index(self):
        with pytest.raises(ValueError):
            BatchQueryEngine(PrunedLandmarkLabeling())

    def test_query_and_query_batch_match_index(self, small_social_graph):
        index = PrunedLandmarkLabeling().build(small_social_graph)
        engine = BatchQueryEngine(index)
        result = engine.query_batch([0, 1, 2], [5, 6, 7])
        assert np.array_equal(result, index.distances([(0, 5), (1, 6), (2, 7)]))
        assert engine.query(0, 5) == index.distance(0, 5)

    def test_matches_scalar_with_bit_parallel(self, medium_social_graph):
        index = PrunedLandmarkLabeling(num_bit_parallel_roots=4).build(
            medium_social_graph
        )
        engine = BatchQueryEngine(index)
        rng = np.random.default_rng(5)
        n = medium_social_graph.num_vertices
        sources = rng.integers(0, n, size=400)
        targets = rng.integers(0, n, size=400)
        assert np.array_equal(
            engine.query_batch(sources, targets),
            scalar_reference(index, sources, targets),
        )

    def test_one_to_many_matches_scalar(self, medium_social_graph):
        # The previously wire-unreachable one-to-many verb, now routed through
        # the engine: equal to per-pair scalar queries bit for bit.
        index = PrunedLandmarkLabeling(num_bit_parallel_roots=4).build(
            medium_social_graph
        )
        engine = BatchQueryEngine(index)
        n = medium_social_graph.num_vertices
        source = 7
        full = engine.query_one_to_many(source)
        assert full.shape == (n,)
        assert np.array_equal(full, scalar_reference(index, [source] * n, range(n)))
        subset = [0, n - 1, 42, 42]
        assert np.array_equal(
            engine.query_one_to_many(source, subset),
            scalar_reference(index, [source] * len(subset), subset),
        )

    def test_one_to_many_span_and_validation(self, small_social_graph):
        index = PrunedLandmarkLabeling().build(small_social_graph)
        engine = BatchQueryEngine(index)
        spans = []
        result = engine.query_one_to_many(0, [1, 2, 3], span_sink=spans)
        assert result.shape == (3,)
        assert [span.name for span in spans] == ["kernel"]
        assert spans[0].attrs["pairs"] == 3
        with pytest.raises(VertexError):
            engine.query_one_to_many(index.label_set.num_vertices)
        with pytest.raises(VertexError):
            engine.query_one_to_many(0, [-1])
