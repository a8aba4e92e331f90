"""Tests for the one batch kernel against the scalar oracle.

Every kernel entry point — ``query_pairs``, the subset and full
``query_one_to_many`` and ``rooted_probe`` — must return exactly what the
scalar two-pointer merge (:func:`~repro.core.query.merge_join_query`), an
interpreted loop or ``index.distance`` returns, for both key widths
(``uint32`` and ``int64``), both sum widths (``uint16`` and ``int32``),
empty labels, ``s == t``, disconnected graphs, and indexes with and without
bit-parallel labels.  Stored generations keep one key array in the rule's
width, and files written with the earlier layout (``int64`` keys plus five
derived arrays) still load and answer identically.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core import storage
from repro.core.index import PrunedLandmarkLabeling
from repro.core.kernels import (
    MAX_UINT16_SUM_DISTANCE,
    BatchQueryKernel,
    key_dtype,
    registered_kernels,
    rooted_probe,
    sum_dtype,
)
from repro.core.labels import LabelSet
from repro.core.query import merge_join_query
from repro.core.serialization import index_from_backend, index_to_arrays, load_index, save_index
from repro.graph.csr import Graph
from repro.serving import BatchQueryEngine, SnapshotManager

#: The smallest vertex count whose keys need ``int64``: ``n * n - 1 >= 2**32``.
WIDE_N = 2**16 + 1

#: Field names of the earlier stored layout, which loaders must read past.
LEGACY_FIELDS = (
    "kernel_keys32",
    "kernel_dists8",
    "kernel_hub_indptr",
    "kernel_hub_owners",
    "kernel_hub_dists8",
)

_SETTINGS = settings(
    max_examples=30, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)


def _label_set(num_vertices: int, rows: Dict[int, Tuple[List[int], List[int]]]) -> LabelSet:
    """A label set with the given per-vertex labels; every other label is empty."""
    sizes = np.zeros(num_vertices, dtype=np.int64)
    for vertex, (hubs, _) in rows.items():
        sizes[vertex] = len(hubs)
    indptr = np.zeros(num_vertices + 1, dtype=np.int64)
    np.cumsum(sizes, out=indptr[1:])
    hubs = np.zeros(int(indptr[-1]), dtype=np.int32)
    dists = np.zeros(int(indptr[-1]), dtype=np.uint16)
    for vertex, (row_hubs, row_dists) in rows.items():
        hubs[indptr[vertex]: indptr[vertex + 1]] = row_hubs
        dists[indptr[vertex]: indptr[vertex + 1]] = row_dists
    return LabelSet(indptr, hubs, dists, np.arange(num_vertices, dtype=np.int64))


def _oracle(labels: LabelSet, s: int, t: int) -> float:
    s_hubs, s_dists = labels.vertex_label(s)
    t_hubs, t_dists = labels.vertex_label(t)
    # Python ints, so large uint16 distances cannot wrap when summed.
    return float(
        merge_join_query(s_hubs.tolist(), s_dists.tolist(), t_hubs.tolist(), t_dists.tolist())
    )


@st.composite
def labelled_vertices(draw):
    """``(labels, vertices)``: arbitrary rank-sorted labels over a few vertices.

    With ``wide``, the vertex count is :data:`WIDE_N` and the labelled
    vertices and hubs sit at both ends of the id range, so keys run past
    ``2**32``.  Distances reach past the ``uint16`` sum bound when drawn so.
    """
    wide = draw(st.booleans())
    if wide:
        num_vertices = WIDE_N
        pool = list(range(6)) + list(range(WIDE_N - 6, WIDE_N))
    else:
        num_vertices = draw(st.integers(1, 12))
        pool = list(range(num_vertices))
    largest = draw(st.sampled_from([3, 40, MAX_UINT16_SUM_DISTANCE + 1, 65534]))
    rows = {}
    for vertex in pool:
        hubs = sorted(draw(st.sets(st.sampled_from(pool), max_size=5)))
        dists = draw(st.lists(st.integers(0, largest), min_size=len(hubs), max_size=len(hubs)))
        rows[vertex] = (hubs, dists)
    return _label_set(num_vertices, rows), pool


@st.composite
def probe_inputs(draw):
    """Rank-sorted segments, a scattered root label and a rank cut-off."""
    num_ranks = draw(st.integers(1, 30))
    sentinel = 2**40
    segments = draw(st.lists(
        st.lists(st.tuples(st.integers(0, num_ranks - 1), st.integers(0, 50)), max_size=6),
        max_size=12,
    ))
    segments = [sorted(dict(segment).items()) for segment in segments]
    temp = np.full(num_ranks, sentinel, dtype=np.int64)
    root = draw(st.dictionaries(st.integers(0, num_ranks - 1), st.integers(0, 50)))
    for rank, distance in root.items():
        temp[rank] = distance
    return segments, temp, draw(st.integers(0, num_ranks - 1)), sentinel


@st.composite
def small_graphs(draw):
    num_vertices = draw(st.integers(1, 40))
    edges = draw(st.lists(
        st.tuples(st.integers(0, num_vertices - 1), st.integers(0, num_vertices - 1)),
        max_size=2 * num_vertices,
    ))
    return Graph(num_vertices, [(u, v) for u, v in edges if u != v])


class TestDtypePlan:
    """The width rule: keys from the vertex count, sums from the largest distance."""

    def test_small_index_plans_narrow(self, small_social_graph):
        index = PrunedLandmarkLabeling(num_bit_parallel_roots=4).build(small_social_graph)
        kernel = index.prepare_batch_kernel()
        assert kernel.backend_name == "narrow"
        assert kernel.keys.dtype == np.uint32
        assert key_dtype(2**16) == np.uint32  # largest key 2**32 - 1

    def test_key_overflow_forces_wide(self):
        assert key_dtype(WIDE_N) == np.int64
        assert key_dtype(100_000) == np.int64

    def test_empty_distances(self):
        assert key_dtype(0) == np.uint32
        assert sum_dtype(np.empty(0, dtype=np.uint16)) == np.uint16
        kernel = BatchQueryKernel(_label_set(3, {}))
        assert kernel.keys.shape == (0,) and kernel.keys.dtype == np.uint32

    def test_sum_width_follows_largest_distance(self):
        assert sum_dtype(np.asarray([MAX_UINT16_SUM_DISTANCE], dtype=np.uint16)) == np.uint16
        assert sum_dtype(np.asarray([MAX_UINT16_SUM_DISTANCE + 1], dtype=np.uint16)) == np.int32

    def test_registered_kernels_names_the_one_kernel(self):
        (cls,) = registered_kernels().values()
        assert cls is BatchQueryKernel
        assert {"query_pairs", "query_one_to_many"} <= set(vars(cls))


class TestByteIdentity:
    @_SETTINGS
    @given(labelled_vertices(), st.data())
    def test_query_pairs_byte_identical(self, drawn, data):
        labels, pool = drawn
        kernel = BatchQueryKernel(labels)
        assert kernel.keys.dtype == key_dtype(labels.num_vertices)
        pairs = data.draw(
            st.lists(st.tuples(st.sampled_from(pool), st.sampled_from(pool)), max_size=40)
        )
        sources = np.asarray([s for s, _ in pairs], dtype=np.int64)
        targets = np.asarray([t for _, t in pairs], dtype=np.int64)
        expected = np.asarray([_oracle(labels, s, t) for s, t in pairs], dtype=np.float64)
        assert kernel.query_pairs(sources, targets).tobytes() == expected.tobytes()

    @_SETTINGS
    @given(labelled_vertices(), st.data())
    def test_one_to_many_byte_identical(self, drawn, data):
        labels, pool = drawn
        kernel = BatchQueryKernel(labels)
        source = data.draw(st.sampled_from(pool))
        subset = data.draw(st.lists(st.sampled_from(pool), max_size=20))
        expected = np.asarray([_oracle(labels, source, t) for t in subset], dtype=np.float64)
        got = kernel.query_one_to_many(source, np.asarray(subset, dtype=np.int64))
        assert got.tobytes() == expected.tobytes()
        full = kernel.query_one_to_many(source)
        assert full.shape == (labels.num_vertices,)
        expected_full = np.asarray([_oracle(labels, source, t) for t in pool], dtype=np.float64)
        assert full[pool].tobytes() == expected_full.tobytes()
        unlabelled = np.ones(labels.num_vertices, dtype=bool)
        unlabelled[pool] = False
        assert np.isinf(full[unlabelled]).all()

    @_SETTINGS
    @given(probe_inputs())
    def test_rooted_probe_loop_matches_numpy(self, drawn):
        """An interpreted per-segment probe and the numpy one agree."""
        segments, temp, max_rank, sentinel = drawn
        sizes = np.asarray([len(segment) for segment in segments], dtype=np.int64)
        starts = np.zeros(sizes.shape[0], dtype=np.int64)
        np.cumsum(sizes[:-1], out=starts[1:])
        flat = [entry for segment in segments for entry in segment]
        flat_hubs = np.asarray([hub for hub, _ in flat], dtype=np.int64)
        flat_dists = np.asarray([dist for _, dist in flat], dtype=np.int64)
        expected = []
        for segment in segments:
            best = sentinel
            for hub, dist in segment:
                if hub <= max_rank:
                    best = min(best, int(temp[hub]) + dist)
            expected.append(best)
        got = rooted_probe(flat_hubs, flat_dists, starts, sizes, temp, max_rank, sentinel)
        assert got.dtype == np.int64
        assert got.tolist() == expected

    def test_one_to_many_matches_scalar_label_queries(self, small_social_graph):
        # The wire-level contract: one-to-many through the engine equals the
        # scalar per-pair path bit for bit (zeroing and bp fold included).
        index = PrunedLandmarkLabeling().build(small_social_graph)
        engine = BatchQueryEngine(index)
        n = index.label_set.num_vertices
        source = 3
        batch = engine.query_one_to_many(source)
        scalar = np.asarray([index.distance(source, t) for t in range(n)], dtype=np.float64)
        assert batch.tobytes() == scalar.tobytes()

    def test_empty_batch_and_empty_labels(self):
        labels = _label_set(4, {0: ([0], [0])})
        kernel = BatchQueryKernel(labels)
        empty = np.empty(0, dtype=np.int64)
        assert kernel.query_pairs(empty, empty).shape == (0,)
        assert np.isinf(kernel.query_pairs([1, 2], [3, 3])).all()
        assert kernel.query_one_to_many(1, empty).shape == (0,)
        assert np.isinf(kernel.query_one_to_many(1)).all()

    def test_mismatched_lengths_rejected(self):
        kernel = BatchQueryKernel(_label_set(3, {}))
        with pytest.raises(ValueError):
            kernel.query_pairs([0, 1], [1])

    @_SETTINGS
    @given(small_graphs(), st.sampled_from([0, 16]))
    def test_index_batch_and_fan_out_match_distance(self, graph, roots):
        index = PrunedLandmarkLabeling(num_bit_parallel_roots=roots).build(graph)
        n = graph.num_vertices
        grid = np.arange(n, dtype=np.int64)
        sources, targets = np.repeat(grid, n), np.tile(grid, n)
        scalar = np.asarray(
            [index.distance(int(s), int(t)) for s, t in zip(sources, targets)], dtype=np.float64
        )
        assert index.distance_batch(sources, targets).tobytes() == scalar.tobytes()
        rows = scalar.reshape(n, n)
        for source in range(n):
            assert index.distances_from(source).tobytes() == rows[source].tobytes()
            subset = [source, n - 1, 0, source]
            assert index.distances_from(source, subset).tobytes() == rows[source][subset].tobytes()


@pytest.fixture(scope="module")
def wide_star_index():
    """A star over :data:`WIDE_N` + 1 vertices: its keys need ``int64``."""
    n = WIDE_N + 1
    return PrunedLandmarkLabeling().build(Graph(n, [(0, leaf) for leaf in range(1, n)]))


def _check_star_answers(index: PrunedLandmarkLabeling) -> None:
    """Batch and fan-out answers of a star index equal ``index.distance``."""
    n = index.label_set.num_vertices
    ids = np.asarray([0, 1, 2, n // 2, n - 2, n - 1], dtype=np.int64)
    sources, targets = np.repeat(ids, ids.shape[0]), np.tile(ids, ids.shape[0])
    scalar = np.asarray([index.distance(int(s), int(t)) for s, t in zip(sources, targets)])
    assert index.distance_batch(sources, targets).tobytes() == scalar.tobytes()
    for source in (0, n - 1):
        row = scalar[sources == source]
        assert index.distances_from(source, ids).tobytes() == row.tobytes()
    expected = np.full(n, 2.0)
    expected[0], expected[n - 1] = 1.0, 0.0
    assert index.distances_from(n - 1).tobytes() == expected.tobytes()


class TestWideKeys:
    def test_star_index_uses_wide_keys(self, wide_star_index):
        kernel = wide_star_index.prepare_batch_kernel()
        assert kernel.keys.dtype == np.int64
        assert kernel.backend_name == "wide"
        assert int(kernel.keys.max()) >= 2**32

    def test_star_answers_match_distance(self, wide_star_index):
        _check_star_answers(wide_star_index)


def _parent_layout_raw(index: PrunedLandmarkLabeling, path) -> None:
    """Write ``index`` the way the earlier layout did: ``int64`` keys, the five
    derived narrow/hub-major arrays and a ``kernel_plan`` record."""
    fields, metadata = index_to_arrays(index, include_kernel=True)
    labels = index.label_set
    keys = fields["kernel_keys"].astype(np.int64)
    perm = np.argsort(labels.hub_ranks, kind="stable")
    counts = np.bincount(labels.hub_ranks, minlength=labels.num_vertices)
    hub_indptr = np.zeros(labels.num_vertices + 1, dtype=np.int64)
    np.cumsum(counts, out=hub_indptr[1:])
    fields.update({
        "kernel_keys": keys,
        "kernel_keys32": keys.astype(np.uint32),
        "kernel_dists8": labels.distances.astype(np.uint8),
        "kernel_hub_indptr": hub_indptr,
        "kernel_hub_owners": (keys[perm] // labels.num_vertices).astype(np.uint32),
        "kernel_hub_dists8": labels.distances.astype(np.uint8)[perm],
    })
    metadata["kernel_plan"] = {
        "narrow": True, "key_dtype": "uint32", "dist_dtype": "uint8",
        "max_distance": int(labels.distances.max()),
    }
    storage.write_raw(path, fields, metadata)


def _stored_fields(path) -> Dict[str, np.dtype]:
    backend = storage.MmapBackend(path)
    try:
        return {name: backend.get(name).dtype for name in backend.fields()}
    finally:
        backend.close()


class TestLayoutMetadata:
    def test_sharded_attach_adopts_published_plan(self, small_social_graph):
        """A shared generation stores one key array; attaching workers use it."""
        manager = SnapshotManager.from_graph(small_social_graph, shared=True)
        try:
            published = manager.current.engine.index
            backend = manager.current.generation.backend
            fields = set(backend.fields())
            assert "kernel_keys" in fields and not set(LEGACY_FIELDS) & fields
            attached = index_from_backend(backend)
            attached_keys = attached.prepare_batch_kernel().keys
            assert attached_keys.dtype == np.uint32
            assert np.shares_memory(attached_keys, backend.get("kernel_keys"))
            rng = np.random.default_rng(4)
            pairs = rng.integers(0, small_social_graph.num_vertices, size=(200, 2))
            assert (
                attached.distance_batch(pairs[:, 0], pairs[:, 1]).tobytes()
                == published.distance_batch(pairs[:, 0], pairs[:, 1]).tobytes()
            )
        finally:
            manager.close()

    def test_raw_round_trip_preserves_plan(self, tmp_path, small_social_graph):
        index = PrunedLandmarkLabeling(num_bit_parallel_roots=4).build(small_social_graph)
        path = tmp_path / "index.pll"
        save_index(index, path)
        fields = _stored_fields(path)
        assert [name for name in fields if name.startswith("kernel")] == ["kernel_keys"]
        assert fields["kernel_keys"] == np.uint32
        loaded = load_index(path)
        assert np.array_equal(loaded.prepare_batch_kernel().keys, index.prepare_batch_kernel().keys)
        rng = np.random.default_rng(6)
        pairs = rng.integers(0, small_social_graph.num_vertices, size=(200, 2))
        assert (
            loaded.distance_batch(pairs[:, 0], pairs[:, 1]).tobytes()
            == index.distance_batch(pairs[:, 0], pairs[:, 1]).tobytes()
        )

    def test_wide_plan_round_trips_too(self, tmp_path, wide_star_index):
        path = tmp_path / "wide.pll"
        save_index(wide_star_index, path)
        assert _stored_fields(path)["kernel_keys"] == np.int64
        loaded = load_index(path, mmap=True)
        assert loaded.prepare_batch_kernel().backend_name == "wide"
        _check_star_answers(loaded)

    def test_narrow_clone_shares_label_arrays(self, small_social_graph):
        """The kernel reads the label set's own arrays, never a copy."""
        index = PrunedLandmarkLabeling(num_bit_parallel_roots=4).build(small_social_graph)
        kernel = index.prepare_batch_kernel()
        assert kernel._dists is index.label_set.distances
        assert kernel._hub_ranks is index.label_set.hub_ranks
        assert kernel._indptr is index.label_set.indptr

    @pytest.mark.parametrize("mmap", [False, True])
    def test_parent_layout_file_loads_and_answers_identically(
        self, tmp_path, small_social_graph, mmap
    ):
        index = PrunedLandmarkLabeling(num_bit_parallel_roots=4).build(small_social_graph)
        path = tmp_path / "parent.pll"
        _parent_layout_raw(index, path)
        loaded = load_index(path, mmap=mmap)
        kernel = loaded.prepare_batch_kernel()
        # The int64 keys are cast once to the width rule's uint32.
        assert kernel.keys.dtype == np.uint32
        assert np.array_equal(kernel.keys, index.prepare_batch_kernel().keys)
        n = small_social_graph.num_vertices
        rng = np.random.default_rng(6)
        pairs = rng.integers(0, n, size=(400, 2))
        assert (
            loaded.distance_batch(pairs[:, 0], pairs[:, 1]).tobytes()
            == index.distance_batch(pairs[:, 0], pairs[:, 1]).tobytes()
        )
        for source in (0, n - 1):
            assert loaded.distances_from(source).tobytes() == index.distances_from(source).tobytes()
            subset = pairs[:50, 1]
            assert (
                loaded.distances_from(source, subset).tobytes()
                == index.distances_from(source, subset).tobytes()
            )
        # Re-saving writes the current layout only.
        resaved = tmp_path / "resaved.pll"
        save_index(loaded, resaved)
        assert not set(LEGACY_FIELDS) & set(_stored_fields(resaved))

    def test_patched_kernel_matches_rebuilt_kernel(self, small_social_graph):
        index = PrunedLandmarkLabeling().build(small_social_graph)
        labels = index.label_set
        kernel = index.prepare_batch_kernel()
        # Move vertex 3's label onto vertex 5's and drop vertex 7's.
        updates = {5: tuple(a.tolist() for a in labels.vertex_label(3)), 7: ([], [])}
        patched_labels = labels.patched(updates)
        patched = kernel.patched(patched_labels, updates)
        rebuilt = BatchQueryKernel(patched_labels)
        assert patched.keys.dtype == rebuilt.keys.dtype
        assert np.array_equal(patched.keys, rebuilt.keys)
