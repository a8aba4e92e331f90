"""Tests for index serialization (save_index / load_index)."""

from __future__ import annotations

import mmap

import numpy as np
import pytest

from repro.core.index import PrunedLandmarkLabeling
from repro.core.serialization import (
    FORMAT_VERSION,
    load_index,
    load_index_metadata,
    save_index,
)
from repro.errors import SerializationError
from tests.conftest import sample_pairs


class TestSaveLoad:
    def test_roundtrip_distances(self, tmp_path, medium_social_graph):
        index = PrunedLandmarkLabeling(num_bit_parallel_roots=4).build(
            medium_social_graph
        )
        path = tmp_path / "index.npz"
        save_index(index, path)
        loaded = load_index(path)

        pairs = sample_pairs(medium_social_graph, 200, seed=0)
        assert np.array_equal(index.distances(pairs), loaded.distances(pairs))

    def test_roundtrip_without_bit_parallel(self, tmp_path, small_social_graph):
        index = PrunedLandmarkLabeling(num_bit_parallel_roots=0).build(
            small_social_graph
        )
        path = tmp_path / "index.npz"
        save_index(index, path)
        loaded = load_index(path)
        pairs = sample_pairs(small_social_graph, 100, seed=1)
        assert np.array_equal(index.distances(pairs), loaded.distances(pairs))

    def test_loaded_index_has_no_graph(self, tmp_path, small_social_graph):
        index = PrunedLandmarkLabeling().build(small_social_graph)
        path = tmp_path / "index.npz"
        save_index(index, path)
        loaded = load_index(path)
        assert loaded.graph is None
        assert loaded.built

    def test_metadata_preserved(self, tmp_path, small_social_graph):
        index = PrunedLandmarkLabeling(
            ordering="closeness", num_bit_parallel_roots=2
        ).build(small_social_graph)
        path = tmp_path / "index.npz"
        save_index(index, path)
        loaded = load_index(path)
        assert loaded.ordering == "closeness"
        assert loaded.num_bit_parallel_roots == 2
        assert loaded.bit_parallel_labels.num_roots == 2
        assert loaded.average_label_size() == index.average_label_size()

    def test_root_sets_roundtrip(self, tmp_path, medium_social_graph):
        index = PrunedLandmarkLabeling(num_bit_parallel_roots=3).build(
            medium_social_graph
        )
        path = tmp_path / "index.npz"
        save_index(index, path)
        loaded = load_index(path)
        assert loaded.bit_parallel_labels.root_sets == index.bit_parallel_labels.root_sets
        assert np.array_equal(
            loaded.bit_parallel_labels.roots, index.bit_parallel_labels.roots
        )


class TestRawLayout:
    def test_raw_roundtrip_distances(self, tmp_path, medium_social_graph):
        index = PrunedLandmarkLabeling(num_bit_parallel_roots=4).build(
            medium_social_graph
        )
        path = tmp_path / "index.pll"
        save_index(index, path)
        loaded = load_index(path)
        pairs = sample_pairs(medium_social_graph, 200, seed=2)
        assert np.array_equal(index.distances(pairs), loaded.distances(pairs))

    def test_mmap_load_is_read_only_and_exact(self, tmp_path, medium_social_graph):
        """``load_index(mmap=True)`` hands out read-only zero-copy views that
        still answer batch queries bit-identically to scalar ones."""
        index = PrunedLandmarkLabeling(num_bit_parallel_roots=4).build(
            medium_social_graph
        )
        path = tmp_path / "index.pll"
        save_index(index, path)
        mapped = load_index(path, mmap=True)

        labels = mapped.label_set
        for array in (labels.indptr, labels.hub_ranks, labels.distances, labels.order):
            assert not array.flags.writeable
        bp = mapped.bit_parallel_labels
        for array in (bp.dist, bp.s_minus, bp.s_zero):
            assert not array.flags.writeable

        pairs = sample_pairs(medium_social_graph, 300, seed=5)
        batched = mapped.distances(pairs)
        scalar = [mapped.distance(s, t) for s, t in pairs]
        assert np.array_equal(batched, np.asarray(scalar))
        assert np.array_equal(batched, index.distances(pairs))

    def test_mmap_load_hands_out_plain_zero_copy_views(self, tmp_path, medium_social_graph):
        """Every stored array of a mapped index is a plain read-only ndarray
        over the file's memory map: not an ``np.memmap`` (whose per-call
        Python hooks slow every small query operation) and not a heap copy."""
        index = PrunedLandmarkLabeling(num_bit_parallel_roots=4).build(
            medium_social_graph
        )
        path = tmp_path / "index.pll"
        save_index(index, path)
        mapped = load_index(path, mmap=True)

        labels = mapped.label_set
        bp = mapped.bit_parallel_labels
        kernel = mapped.prepare_batch_kernel()
        # Keys stored in the width rule's dtype are used as the file's view.
        assert kernel.keys.dtype == np.uint32
        arrays = {
            "label_indptr": labels.indptr,
            "label_hubs": labels.hub_ranks,
            "label_dists": labels.distances,
            "order": labels.order,
            "bp_roots": bp.roots,
            "bp_dist": bp.dist,
            "bp_s_minus": bp.s_minus,
            "bp_s_zero": bp.s_zero,
            "kernel_keys": kernel.keys,
        }
        for name, array in arrays.items():
            assert type(array) is np.ndarray, name
            assert not array.flags.writeable, name
            base = array
            while isinstance(base, np.ndarray):
                base = base.base
            assert isinstance(base, mmap.mmap), name

    def test_mmap_load_rejects_npz(self, tmp_path, small_social_graph):
        index = PrunedLandmarkLabeling().build(small_social_graph)
        path = tmp_path / "index.npz"
        save_index(index, path)
        with pytest.raises(SerializationError, match="memory-mapped"):
            load_index(path, mmap=True)

    def test_raw_metadata(self, tmp_path, small_social_graph):
        index = PrunedLandmarkLabeling(num_bit_parallel_roots=2).build(
            small_social_graph
        )
        path = tmp_path / "index.pll"
        save_index(index, path)
        metadata = load_index_metadata(path)
        assert metadata["format_version"] == FORMAT_VERSION
        assert metadata["num_vertices"] == small_social_graph.num_vertices
        assert metadata["num_bit_parallel_roots"] == 2


class TestMetadata:
    def test_load_index_metadata(self, tmp_path, small_social_graph):
        index = PrunedLandmarkLabeling(num_bit_parallel_roots=2).build(
            small_social_graph
        )
        path = tmp_path / "index.npz"
        save_index(index, path)
        metadata = load_index_metadata(path)
        assert metadata["format_version"] == FORMAT_VERSION
        assert metadata["num_vertices"] == small_social_graph.num_vertices
        assert metadata["num_bit_parallel_roots"] == 2
        assert metadata["ordering"] == "degree"

    def test_load_index_metadata_missing_file(self, tmp_path):
        with pytest.raises(SerializationError):
            load_index_metadata(tmp_path / "missing.npz")


class TestErrors:
    def test_save_unbuilt_index(self, tmp_path):
        with pytest.raises(SerializationError):
            save_index(PrunedLandmarkLabeling(), tmp_path / "x.npz")

    def test_load_missing_file(self, tmp_path):
        with pytest.raises(SerializationError):
            load_index(tmp_path / "does_not_exist.npz")

    def test_load_corrupt_file(self, tmp_path):
        path = tmp_path / "corrupt.npz"
        path.write_bytes(b"this is not an npz archive")
        with pytest.raises(SerializationError):
            load_index(path)

    def test_format_version_constant(self):
        assert FORMAT_VERSION >= 1
