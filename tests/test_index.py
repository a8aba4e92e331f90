"""Unit tests for the public PrunedLandmarkLabeling facade."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.index import PrunedLandmarkLabeling, build_index
from repro.errors import IndexStateError
from repro.graph.csr import Graph
from tests.conftest import exact_distances, sample_pairs


class TestLifecycle:
    def test_unbuilt_index_raises(self):
        index = PrunedLandmarkLabeling()
        assert not index.built
        with pytest.raises(IndexStateError):
            index.distance(0, 1)
        with pytest.raises(IndexStateError):
            index.average_label_size()

    def test_build_returns_self(self, small_social_graph):
        index = PrunedLandmarkLabeling()
        assert index.build(small_social_graph) is index
        assert index.built

    def test_build_index_convenience(self, small_social_graph):
        index = build_index(small_social_graph, num_bit_parallel_roots=2)
        assert index.built
        assert index.bit_parallel_labels.num_roots == 2

    def test_explicit_order_override(self, small_social_graph):
        n = small_social_graph.num_vertices
        order = np.arange(n)[::-1]
        index = PrunedLandmarkLabeling().build(small_social_graph, order=order)
        assert np.array_equal(index.order, order)


class TestExactness:
    @pytest.mark.parametrize("num_bp", [0, 1, 8])
    def test_distance_matches_apsp(self, medium_social_graph, num_bp):
        index = PrunedLandmarkLabeling(num_bit_parallel_roots=num_bp).build(
            medium_social_graph
        )
        truth = exact_distances(medium_social_graph)
        for s, t in sample_pairs(medium_social_graph, 300, seed=num_bp):
            assert index.distance(s, t) == truth[s, t]

    def test_self_distance_zero(self, small_social_graph):
        index = PrunedLandmarkLabeling().build(small_social_graph)
        assert index.distance(7, 7) == 0.0

    def test_disconnected_pairs_are_inf(self, disconnected_graph):
        index = PrunedLandmarkLabeling().build(disconnected_graph)
        assert index.distance(0, 3) == float("inf")
        assert index.distance(5, 1) == float("inf")
        assert not index.connected(0, 3)
        assert index.connected(0, 2)

    def test_batch_distances(self, small_social_graph):
        index = PrunedLandmarkLabeling().build(small_social_graph)
        pairs = sample_pairs(small_social_graph, 50, seed=1)
        batch = index.distances(pairs)
        singles = [index.distance(s, t) for s, t in pairs]
        assert list(batch) == singles

    def test_query_alias(self, small_social_graph):
        index = PrunedLandmarkLabeling().build(small_social_graph)
        assert index.query(0, 5) == index.distance(0, 5)

    @pytest.mark.parametrize("ordering", ["degree", "closeness", "random"])
    def test_all_orderings_exact(self, small_social_graph, ordering):
        index = PrunedLandmarkLabeling(ordering=ordering, seed=3).build(
            small_social_graph
        )
        truth = exact_distances(small_social_graph)
        for s, t in sample_pairs(small_social_graph, 150, seed=5):
            assert index.distance(s, t) == truth[s, t]

    def test_single_vertex_graph(self):
        index = PrunedLandmarkLabeling().build(Graph(1, []))
        assert index.distance(0, 0) == 0.0

    def test_empty_graph(self):
        index = PrunedLandmarkLabeling().build(Graph(0, []))
        assert index.average_label_size() == 0.0


class TestCoveringRank:
    def test_same_vertex_is_zero(self, small_social_graph):
        index = PrunedLandmarkLabeling().build(small_social_graph)
        assert index.covering_rank(3, 3) == 0

    def test_disconnected_is_none(self, disconnected_graph):
        index = PrunedLandmarkLabeling().build(disconnected_graph)
        assert index.covering_rank(0, 3) is None

    def test_rank_prefix_answers_exactly(self, medium_social_graph):
        """Labels restricted to ranks below the covering rank answer exactly;
        one fewer rank does not."""
        index = PrunedLandmarkLabeling(num_bit_parallel_roots=0).build(
            medium_social_graph
        )
        labels = index.label_set
        truth = exact_distances(medium_social_graph)

        def prefix_query(s, t, max_rank_exclusive):
            s_hubs, s_dists = labels.vertex_label(s)
            t_hubs, t_dists = labels.vertex_label(t)
            s_keep = s_hubs < max_rank_exclusive
            t_keep = t_hubs < max_rank_exclusive
            common, si, ti = np.intersect1d(
                s_hubs[s_keep], t_hubs[t_keep], assume_unique=True, return_indices=True
            )
            if common.shape[0] == 0:
                return float("inf")
            return float(
                (
                    s_dists[s_keep][si].astype(int)
                    + t_dists[t_keep][ti].astype(int)
                ).min()
            )

        checked = 0
        for s, t in sample_pairs(medium_social_graph, 60, seed=9):
            if s == t:
                continue
            step = index.covering_rank(s, t)
            if step is None:
                continue
            assert prefix_query(s, t, step) == truth[s, t]
            if step > 1:
                assert prefix_query(s, t, step - 1) > truth[s, t]
            checked += 1
        assert checked > 20


class TestIntrospection:
    def test_label_of(self, small_social_graph):
        index = PrunedLandmarkLabeling().build(small_social_graph)
        entries = index.label_of(10)
        assert entries
        # Entries are (hub vertex, distance) pairs; the vertex itself appears at 0.
        assert (10, 0) in entries

    def test_index_size_accounts_for_bit_parallel(self, small_social_graph):
        plain = PrunedLandmarkLabeling(num_bit_parallel_roots=0).build(
            small_social_graph
        )
        with_bp = PrunedLandmarkLabeling(num_bit_parallel_roots=8).build(
            small_social_graph
        )
        assert with_bp.bit_parallel_labels.nbytes() > 0
        assert with_bp.index_size_bytes() > with_bp.label_set.nbytes()
        assert plain.index_size_bytes() == plain.label_set.nbytes()

    def test_average_label_size_positive(self, small_social_graph):
        index = PrunedLandmarkLabeling().build(small_social_graph)
        assert index.average_label_size() >= 1.0

    def test_graph_property(self, small_social_graph):
        index = PrunedLandmarkLabeling().build(small_social_graph)
        assert index.graph is small_social_graph

    def test_construction_stats_exposed(self, small_social_graph):
        index = PrunedLandmarkLabeling(collect_stats=True).build(small_social_graph)
        assert index.construction_stats.labeled_per_bfs.sum() == (
            index.label_set.total_entries()
        )


class TestVertexValidation:
    """Regression: ``distance(-1, 0)`` used to return ``inf`` (numpy's
    end-relative indexing produced a nonsense label view) instead of raising,
    masking caller bugs; ``repro-pll query`` already rejected the same ids."""

    def test_distance_rejects_negative_ids(self, small_social_graph):
        from repro.errors import VertexError

        index = PrunedLandmarkLabeling().build(small_social_graph)
        with pytest.raises(VertexError):
            index.distance(-1, 0)
        with pytest.raises(VertexError):
            index.distance(0, -1)

    def test_distance_rejects_too_large_ids(self, small_social_graph):
        from repro.errors import VertexError

        index = PrunedLandmarkLabeling().build(small_social_graph)
        n = small_social_graph.num_vertices
        with pytest.raises(VertexError):
            index.distance(0, n)
        with pytest.raises(VertexError):
            index.distance(n + 7, 0)

    def test_distance_batch_rejects_negative_ids(self, small_social_graph):
        from repro.errors import VertexError

        index = PrunedLandmarkLabeling().build(small_social_graph)
        with pytest.raises(VertexError):
            index.distance_batch([0, -1], [1, 1])

    def test_validation_aligns_with_batch_path(self, small_social_graph):
        """Scalar and batch queries reject exactly the same ids."""
        from repro.errors import VertexError

        index = PrunedLandmarkLabeling().build(small_social_graph)
        n = small_social_graph.num_vertices
        for s, t in [(-1, 0), (0, n), (-5, -5)]:
            with pytest.raises(VertexError):
                index.distance(s, t)
            with pytest.raises(VertexError):
                index.distance_batch([s], [t])

    def test_one_to_many_rejects_out_of_range_ids(self, small_social_graph):
        """Regression: ``distances_from(0, [-1, 2])`` answered ``d(0, n - 1)``
        for the ``-1``, ``top_k_closest(-2, ...)`` answered for vertex
        ``n - 2``, and ``distances_from(-1, ...)`` / ``distances_from(n + 1,
        ...)`` raised raw numpy errors.  Both now raise ``VertexError``, as
        the pair paths do."""
        from repro.errors import VertexError

        index = PrunedLandmarkLabeling().build(small_social_graph)
        n = small_social_graph.num_vertices
        for source, targets in [(0, [-1, 2]), (0, [n]), (-1, [1, 2]), (n + 1, [1, 2]), (-1, None), (n, None)]:
            with pytest.raises(VertexError):
                index.distances_from(source, targets)
        for source, candidates in [(-2, [0, 1, 2]), (0, [1, -3]), (n, [1])]:
            with pytest.raises(VertexError):
                index.top_k_closest(source, candidates, 2)
