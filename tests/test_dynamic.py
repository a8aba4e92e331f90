"""Tests for the fully dynamic (insert + remove) index extension."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.baselines.apsp import APSPOracle
from repro.core.dynamic import DynamicPrunedLandmarkLabeling
from repro.errors import IndexBuildError, IndexStateError, VertexError
from repro.generators import barabasi_albert_graph, split_edge_stream
from repro.graph.csr import Graph
from tests.conftest import sample_pairs


class TestDynamicBasics:
    def test_unbuilt_raises(self):
        with pytest.raises(IndexStateError):
            DynamicPrunedLandmarkLabeling().distance(0, 1)

    def test_rejects_directed(self):
        graph = Graph(3, [(0, 1)], directed=True)
        with pytest.raises(IndexBuildError):
            DynamicPrunedLandmarkLabeling().build(graph)

    def test_initial_build_matches_static(self, small_social_graph):
        oracle = DynamicPrunedLandmarkLabeling().build(small_social_graph)
        truth = APSPOracle().build(small_social_graph)
        for s, t in sample_pairs(small_social_graph, 150, seed=0):
            assert oracle.distance(s, t) == truth.distance(s, t)

    def test_insert_connects_components(self):
        graph = Graph(4, [(0, 1), (2, 3)])
        oracle = DynamicPrunedLandmarkLabeling().build(graph)
        assert oracle.distance(0, 3) == float("inf")
        oracle.insert_edge(1, 2)
        assert oracle.distance(0, 3) == 3.0
        assert oracle.distance(0, 2) == 2.0

    def test_distance_is_float_as_in_docstring(self):
        """The class docstring's session, value for value and type for type:
        a connected pair answers a ``float`` like the static index does."""
        oracle = DynamicPrunedLandmarkLabeling().build(Graph(4, [(0, 1), (2, 3)]))
        assert oracle.distance(0, 3) == float("inf")
        oracle.insert_edge(1, 2)
        distance = oracle.distance(0, 3)
        assert isinstance(distance, float) and distance == 3.0
        assert isinstance(oracle.distance(0, 1), float)
        oracle.remove_edge(1, 2)
        assert oracle.distance(0, 3) == float("inf")

    def test_insert_shortcut_reduces_distance(self, path_graph):
        oracle = DynamicPrunedLandmarkLabeling().build(path_graph)
        assert oracle.distance(0, 4) == 4.0
        oracle.insert_edge(0, 4)
        assert oracle.distance(0, 4) == 1.0
        assert oracle.distance(1, 4) == 2.0

    def test_duplicate_and_self_loop_inserts_are_noops(self, path_graph):
        oracle = DynamicPrunedLandmarkLabeling().build(path_graph)
        before = oracle.average_label_size()
        oracle.insert_edge(0, 1)   # already present
        oracle.insert_edge(2, 2)   # self loop
        assert oracle.average_label_size() == before
        assert oracle.distance(0, 4) == 4.0

    def test_out_of_range_insert_rejected(self, path_graph):
        oracle = DynamicPrunedLandmarkLabeling().build(path_graph)
        with pytest.raises(IndexBuildError):
            oracle.insert_edge(0, 99)

    def test_label_of(self, path_graph):
        oracle = DynamicPrunedLandmarkLabeling().build(path_graph)
        entries = oracle.label_of(0)
        assert (0, 0) in entries


class TestDynamicConvergence:
    def test_stream_converges_to_full_graph(self):
        full = barabasi_albert_graph(150, 2, seed=13)
        initial, stream = split_edge_stream(full, 0.6, seed=13)
        oracle = DynamicPrunedLandmarkLabeling().build(initial)
        oracle.insert_edges(stream)
        truth = APSPOracle().build(full)
        for s, t in sample_pairs(full, 250, seed=14):
            assert oracle.distance(s, t) == truth.distance(s, t)

    def test_incremental_queries_along_the_way(self):
        full = barabasi_albert_graph(80, 2, seed=21)
        initial, stream = split_edge_stream(full, 0.5, seed=21)
        oracle = DynamicPrunedLandmarkLabeling().build(initial)

        current_edges = list(initial.edges())
        rng = np.random.default_rng(5)
        for edge in stream:
            oracle.insert_edge(*edge)
            current_edges.append(edge)
            current = Graph(full.num_vertices, current_edges)
            truth = APSPOracle().build(current)
            for _ in range(5):
                s = int(rng.integers(0, full.num_vertices))
                t = int(rng.integers(0, full.num_vertices))
                assert oracle.distance(s, t) == truth.distance(s, t)

    @settings(max_examples=20, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(seed=st.integers(min_value=0, max_value=500), n=st.integers(min_value=4, max_value=25))
    def test_random_insertion_streams(self, seed, n):
        rng = np.random.default_rng(seed)
        num_edges = int(rng.integers(n, 3 * n))
        edges = [
            (int(rng.integers(0, n)), int(rng.integers(0, n))) for _ in range(num_edges)
        ]
        full = Graph(n, edges)
        all_edges = list(full.edges())
        if len(all_edges) < 2:
            return
        rng.shuffle(all_edges)
        cut = max(1, len(all_edges) // 2)
        initial = Graph(n, all_edges[:cut])
        oracle = DynamicPrunedLandmarkLabeling().build(initial)
        oracle.insert_edges(all_edges[cut:])
        truth = APSPOracle().build(full)
        for s in range(n):
            for t in range(n):
                assert oracle.distance(s, t) == truth.distance(s, t)


class TestDecrementalBasics:
    def test_remove_disconnects(self, path_graph):
        oracle = DynamicPrunedLandmarkLabeling().build(path_graph)
        oracle.remove_edge(2, 3)
        assert oracle.distance(0, 4) == float("inf")
        assert oracle.distance(0, 2) == 2.0
        assert oracle.distance(3, 4) == 1.0

    def test_remove_shortcut_restores_long_path(self):
        # A 6-cycle: dropping one edge stretches the opposite pair.
        n = 6
        cycle = Graph(n, [(i, (i + 1) % n) for i in range(n)])
        oracle = DynamicPrunedLandmarkLabeling().build(cycle)
        assert oracle.distance(0, 3) == 3.0
        oracle.remove_edge(0, 5)
        assert oracle.distance(0, 3) == 3.0
        assert oracle.distance(0, 5) == 5.0
        assert oracle.distance(0, 4) == 4.0

    def test_remove_then_reinsert_roundtrip(self, path_graph):
        oracle = DynamicPrunedLandmarkLabeling().build(path_graph)
        truth = APSPOracle().build(path_graph)
        oracle.remove_edge(1, 2)
        oracle.insert_edge(1, 2)
        for s in range(5):
            for t in range(5):
                assert oracle.distance(s, t) == truth.distance(s, t)

    def test_remove_absent_edge_and_self_loop_are_noops(self, path_graph):
        oracle = DynamicPrunedLandmarkLabeling().build(path_graph)
        before = oracle.average_label_size()
        oracle.remove_edge(0, 4)   # never existed
        oracle.remove_edge(2, 2)   # self loop
        assert oracle.average_label_size() == before
        assert oracle.distance(0, 4) == 4.0
        assert oracle.dirty_vertices == frozenset()

    def test_out_of_range_remove_rejected(self, path_graph):
        oracle = DynamicPrunedLandmarkLabeling().build(path_graph)
        with pytest.raises(IndexBuildError):
            oracle.remove_edge(0, 99)
        with pytest.raises(IndexBuildError):
            oracle.remove_edge(-1, 0)

    def test_remove_edges_stream(self):
        graph = Graph(4, [(0, 1), (1, 2), (2, 3), (0, 3)])
        oracle = DynamicPrunedLandmarkLabeling().build(graph)
        oracle.remove_edges([(0, 1), (2, 3)])
        # The 4-cycle splits into two components: {0, 3} and {1, 2}.
        assert oracle.distance(0, 3) == 1.0
        assert oracle.distance(1, 2) == 1.0
        assert oracle.distance(0, 1) == float("inf")


class TestDecrementalCorrectness:
    #: >= 5 seeds x >= 40 mutations = >= 200 mutations checked against BFS
    #: ground truth after every single step (the PR acceptance bar).
    SEEDS = (0, 1, 2, 3, 4)
    MUTATIONS_PER_SEED = 40

    @pytest.mark.parametrize("seed", SEEDS)
    def test_mixed_mutation_stream_matches_bfs(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(12, 28))
        edges = [
            (int(rng.integers(0, n)), int(rng.integers(0, n)))
            for _ in range(int(rng.integers(n, 3 * n)))
        ]
        graph = Graph(n, edges)
        oracle = DynamicPrunedLandmarkLabeling().build(graph)
        current = {tuple(sorted(edge)) for edge in graph.edges()}

        for _ in range(self.MUTATIONS_PER_SEED):
            if current and rng.random() < 0.5:
                a, b = sorted(current)[int(rng.integers(0, len(current)))]
                oracle.remove_edge(a, b)
                current.discard((a, b))
            else:
                a, b = int(rng.integers(0, n)), int(rng.integers(0, n))
                oracle.insert_edge(a, b)
                if a != b:
                    current.add(tuple(sorted((a, b))))
            truth = APSPOracle().build(Graph(n, sorted(current)))
            for s in range(n):
                for t in range(n):
                    assert oracle.distance(s, t) == truth.distance(s, t), (
                        f"seed={seed} pair=({s},{t})"
                    )

    def test_batch_equals_scalar_on_frozen_snapshot_after_deletions(self):
        graph = barabasi_albert_graph(120, 3, seed=9)
        oracle = DynamicPrunedLandmarkLabeling().build(graph)
        rng = np.random.default_rng(10)
        edges = sorted({tuple(sorted(edge)) for edge in graph.edges()})
        for index in rng.choice(len(edges), size=15, replace=False):
            oracle.remove_edge(*edges[int(index)])
        frozen = oracle.freeze()
        pairs = sample_pairs(graph, 300, seed=11)
        pair_array = np.asarray(pairs, dtype=np.int64)
        batched = frozen.distance_batch(pair_array[:, 0], pair_array[:, 1])
        for (s, t), batch_distance in zip(pairs, batched):
            assert batch_distance == frozen.distance(s, t)
            assert batch_distance == oracle.distance(s, t)


class TestDiffFreeze:
    def _mutate(self, oracle, rng, n, current, steps):
        for _ in range(steps):
            if current and rng.random() < 0.5:
                a, b = sorted(current)[int(rng.integers(0, len(current)))]
                oracle.remove_edge(a, b)
                current.discard((a, b))
            else:
                a, b = int(rng.integers(0, n)), int(rng.integers(0, n))
                oracle.insert_edge(a, b)
                if a != b:
                    current.add(tuple(sorted((a, b))))

    def test_diff_freeze_equals_full_freeze(self):
        graph = barabasi_albert_graph(150, 3, seed=21)
        oracle = DynamicPrunedLandmarkLabeling().build(graph)
        rng = np.random.default_rng(22)
        current = {tuple(sorted(edge)) for edge in graph.edges()}
        n = graph.num_vertices
        for _ in range(3):
            self._mutate(oracle, rng, n, current, 8)
            assert len(oracle.dirty_vertices) > 0
            diffed = oracle.freeze(diff=True)
            full = oracle.freeze(diff=False)
            assert np.array_equal(
                diffed.label_set.indptr, full.label_set.indptr
            )
            assert np.array_equal(
                diffed.label_set.hub_ranks, full.label_set.hub_ranks
            )
            assert np.array_equal(
                diffed.label_set.distances, full.label_set.distances
            )
            assert oracle.dirty_vertices == frozenset()

    def test_freeze_clears_dirty_and_isolates_snapshot(self, path_graph):
        oracle = DynamicPrunedLandmarkLabeling().build(path_graph)
        oracle.remove_edge(2, 3)
        assert len(oracle.dirty_vertices) > 0
        frozen = oracle.freeze()
        assert oracle.dirty_vertices == frozenset()
        assert frozen.distance(0, 4) == float("inf")
        oracle.insert_edge(2, 3)
        assert frozen.distance(0, 4) == float("inf")
        assert oracle.distance(0, 4) == 4.0

    def test_noop_mutations_do_not_dirty(self, path_graph):
        oracle = DynamicPrunedLandmarkLabeling().build(path_graph)
        oracle.insert_edge(0, 1)       # already present
        oracle.remove_edge(0, 2)       # absent
        assert oracle.dirty_vertices == frozenset()


class TestDynamicVertexValidation:
    """Regression: out-of-range ids used to raise raw IndexError (too large)
    or silently answer for vertex ``n + id`` (negative, via Python's
    end-relative list indexing)."""

    def test_distance_rejects_out_of_range(self, path_graph):
        oracle = DynamicPrunedLandmarkLabeling().build(path_graph)
        with pytest.raises(VertexError):
            oracle.distance(0, 99)
        with pytest.raises(VertexError):
            oracle.distance(-1, 0)
        # The negative id must not alias vertex n - 1.
        with pytest.raises(VertexError):
            oracle.distance(-1, -1)

    def test_distances_rejects_out_of_range(self, path_graph):
        oracle = DynamicPrunedLandmarkLabeling().build(path_graph)
        with pytest.raises(VertexError):
            oracle.distances([(0, 1), (2, 5)])
        with pytest.raises(VertexError):
            oracle.distances([(-3, 0)])

    def test_label_of_rejects_out_of_range(self, path_graph):
        oracle = DynamicPrunedLandmarkLabeling().build(path_graph)
        with pytest.raises(VertexError):
            oracle.label_of(5)
        with pytest.raises(VertexError):
            oracle.label_of(-1)

    def test_vertex_error_is_an_index_error(self, path_graph):
        oracle = DynamicPrunedLandmarkLabeling().build(path_graph)
        with pytest.raises(IndexError):
            oracle.distance(0, 99)
