"""Unit tests for label storage (LabelAccumulator / LabelSet)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.bitparallel import BitParallelLabels
from repro.core.index import PrunedLandmarkLabeling
from repro.core.labels import INF_DISTANCE, LabelAccumulator, LabelSet
from repro.errors import IndexBuildError


def build_tiny_labelset() -> LabelSet:
    """Labels for a path 0-1-2 processed in order [1, 0, 2] (1 is most central)."""
    accumulator = LabelAccumulator(3)
    # BFS from vertex 1 (rank 0) reaches everything.
    accumulator.append(1, 0, 0)
    accumulator.append(0, 0, 1)
    accumulator.append(2, 0, 1)
    # BFS from vertex 0 (rank 1): only itself survives pruning.
    accumulator.append(0, 1, 0)
    # BFS from vertex 2 (rank 2): only itself survives pruning.
    accumulator.append(2, 2, 0)
    return accumulator.freeze(np.array([1, 0, 2]))


class TestLabelAccumulator:
    def test_append_and_sizes(self):
        accumulator = LabelAccumulator(3)
        accumulator.append(0, 0, 0)
        accumulator.append(0, 1, 2)
        assert accumulator.label_size(0) == 2
        assert accumulator.label_size(1) == 0
        assert accumulator.total_entries() == 2

    def test_entries_iteration(self):
        accumulator = LabelAccumulator(2)
        accumulator.append(1, 0, 3)
        accumulator.append(1, 4, 1)
        assert list(accumulator.entries(1)) == [(0, 3), (4, 1)]

    def test_rank_order_enforced(self):
        accumulator = LabelAccumulator(2)
        accumulator.append(0, 5, 1)
        with pytest.raises(IndexBuildError):
            accumulator.append(0, 3, 1)

    def test_distance_overflow_rejected(self):
        accumulator = LabelAccumulator(1)
        with pytest.raises(IndexBuildError):
            accumulator.append(0, 0, int(INF_DISTANCE))

    def test_freeze_produces_labelset(self):
        labels = build_tiny_labelset()
        assert isinstance(labels, LabelSet)
        assert labels.num_vertices == 3


class TestLabelSet:
    def test_label_sizes(self):
        labels = build_tiny_labelset()
        assert labels.label_size(1) == 1
        assert labels.label_size(0) == 2
        assert labels.total_entries() == 5
        assert labels.average_label_size() == pytest.approx(5 / 3)

    def test_vertex_label_views(self):
        labels = build_tiny_labelset()
        hubs, dists = labels.vertex_label(0)
        assert list(hubs) == [0, 1]
        assert list(dists) == [1, 0]

    def test_vertex_label_as_vertices(self):
        labels = build_tiny_labelset()
        entries = labels.vertex_label_as_vertices(2)
        assert entries == [(1, 1), (2, 0)]

    def test_query_exact_distances(self):
        labels = build_tiny_labelset()
        assert labels.query(0, 2) == 2.0
        assert labels.query(0, 1) == 1.0
        assert labels.query(1, 2) == 1.0
        assert labels.query(0, 0) == 0.0

    def test_query_via_returns_hub(self):
        labels = build_tiny_labelset()
        distance, hub = labels.query_via(0, 2)
        assert distance == 2.0
        assert hub == 1

    def test_query_via_tie_goes_to_lowest_rank_hub(self):
        accumulator = LabelAccumulator(3)
        for vertex in (0, 1):
            for hub_rank, distance in ((0, 1), (1, 1), (2, 3)):
                accumulator.append(vertex, hub_rank, distance)
        labels = accumulator.freeze(np.array([2, 1, 0]))
        assert labels.query_via(0, 1) == (2.0, 2)

    def test_query_disjoint_labels_is_inf(self):
        accumulator = LabelAccumulator(2)
        accumulator.append(0, 0, 0)
        accumulator.append(1, 1, 0)
        labels = accumulator.freeze(np.array([0, 1]))
        assert labels.query(0, 1) == float("inf")
        assert labels.query_via(0, 1) == (float("inf"), None)

    def test_rank_and_order_are_inverse(self):
        labels = build_tiny_labelset()
        assert np.array_equal(labels.order[labels.rank], np.arange(3))

    def test_nbytes_positive(self):
        labels = build_tiny_labelset()
        assert labels.nbytes() > 0

    def test_hub_ranks_sorted_per_vertex(self):
        labels = build_tiny_labelset()
        for v in range(labels.num_vertices):
            hubs, _ = labels.vertex_label(v)
            assert np.all(np.diff(hubs) > 0)

    def test_empty_labelset(self):
        accumulator = LabelAccumulator(0)
        labels = accumulator.freeze(np.zeros(0, dtype=np.int64))
        assert labels.num_vertices == 0
        assert labels.average_label_size() == 0.0


class TestLabelSetPatched:
    def test_empty_updates_returns_self(self):
        labels = build_tiny_labelset()
        assert labels.patched({}) is labels

    def test_patch_matches_from_lists(self):
        labels = build_tiny_labelset()
        # Replace vertex 0's label: grow it.  Replace vertex 2's: shrink it.
        updates = {0: ([0, 1, 2], [2, 0, 3]), 2: ([2], [0])}
        patched = labels.patched(updates)
        expected = LabelSet.from_lists(
            [[0, 1, 2], [0], [2]],
            [[2, 0, 3], [0], [0]],
            np.array([1, 0, 2]),
        )
        assert np.array_equal(patched.indptr, expected.indptr)
        assert np.array_equal(patched.hub_ranks, expected.hub_ranks)
        assert np.array_equal(patched.distances, expected.distances)
        assert np.array_equal(patched.order, labels.order)

    def test_receiver_is_not_mutated(self):
        labels = build_tiny_labelset()
        before = (labels.hub_ranks.copy(), labels.distances.copy())
        labels.patched({1: ([0, 1], [1, 4])})
        assert np.array_equal(labels.hub_ranks, before[0])
        assert np.array_equal(labels.distances, before[1])

    def test_patch_to_empty_label(self):
        labels = build_tiny_labelset()
        patched = labels.patched({1: ([], [])})
        assert patched.label_size(1) == 0
        assert patched.total_entries() == labels.total_entries() - 1
        assert patched.query(0, 2) == 2.0  # untouched vertices still answer

    def test_out_of_range_vertex_rejected(self):
        labels = build_tiny_labelset()
        with pytest.raises(IndexBuildError):
            labels.patched({7: ([0], [0])})
        with pytest.raises(IndexBuildError):
            labels.patched({-1: ([0], [0])})

    def test_random_patches_match_full_rebuild(self):
        rng = np.random.default_rng(3)
        n = 40
        order = rng.permutation(n).astype(np.int64)
        def random_label():
            size = int(rng.integers(0, 6))
            hubs = sorted(rng.choice(n, size=size, replace=False).tolist())
            return hubs, rng.integers(0, 30, size=size).tolist()
        base_labels = [random_label() for _ in range(n)]
        labels = LabelSet.from_lists(
            [h for h, _ in base_labels], [d for _, d in base_labels], order
        )
        for _ in range(5):
            dirty = rng.choice(n, size=int(rng.integers(1, 8)), replace=False)
            updates = {int(v): random_label() for v in dirty}
            for vertex, (hubs, dists) in updates.items():
                base_labels[vertex] = (hubs, dists)
            labels = labels.patched(updates)
            expected = LabelSet.from_lists(
                [h for h, _ in base_labels], [d for _, d in base_labels], order
            )
            assert np.array_equal(labels.indptr, expected.indptr)
            assert np.array_equal(labels.hub_ranks, expected.hub_ranks)
            assert np.array_equal(labels.distances, expected.distances)


def index_over(labels: LabelSet) -> PrunedLandmarkLabeling:
    """An index answering from ``labels`` alone (no bit-parallel labels)."""
    index = PrunedLandmarkLabeling()
    index._labels = labels
    index._bit_parallel = BitParallelLabels.make_empty(labels.num_vertices)
    index._order = labels.order
    return index


class TestQueryOneToManyEmptyGroups:
    """Regression: reduceat start-clipping used to truncate the reduce window
    of the last non-empty label segment whenever trailing vertices had empty
    labels, silently dropping that segment's final (often minimal) entry."""

    def test_last_nonempty_vertex_followed_by_empty_labels(self):
        # Vertex 1's best (and last) entry is hub rank 2; vertex 2 has an
        # empty label behind it, which used to clip the window short.
        labels = LabelSet.from_lists(
            [[0, 1, 2], [0, 2], []],
            [[0, 5, 1], [9, 1], []],
            np.array([0, 1, 2]),
        )
        index = index_over(labels)
        # Both fan-out shapes: all targets, and a target subset (the scan
        # that reduces over ragged groups).
        for result in (index.distances_from(0), index.distances_from(0, [0, 1, 2])):
            assert result[1] == 2.0  # via hub rank 2: 1 + 1, not 9 via hub 0
            assert result[2] == float("inf")

    def test_matches_scalar_query_with_empty_labels(self):
        rng = np.random.default_rng(17)
        n = 25
        labels_per_vertex = []
        for _ in range(n):
            size = int(rng.integers(0, 4))  # empty labels are common
            hubs = sorted(rng.choice(n, size=size, replace=False).tolist())
            labels_per_vertex.append(
                (hubs, rng.integers(0, 9, size=size).tolist())
            )
        labels = LabelSet.from_lists(
            [h for h, _ in labels_per_vertex],
            [d for _, d in labels_per_vertex],
            np.arange(n, dtype=np.int64),
        )
        index = index_over(labels)
        for source in range(0, n, 3):
            full = index.distances_from(source)
            subset = index.distances_from(source, range(n))
            for target in range(n):
                expected = labels.query(source, target)
                if source == target:
                    continue  # distances_from pins the source slot to 0.0
                assert full[target] == expected, (source, target)
                assert subset[target] == expected, (source, target)
