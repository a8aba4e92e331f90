"""Tests for the raw single-file layout and its read-only mmap views."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.storage import MmapBackend, read_raw_meta, write_raw
from repro.errors import SerializationError


def _sample_fields():
    return {
        "small": np.arange(7, dtype=np.int32),
        "wide": np.arange(12, dtype=np.uint64).reshape(3, 4),
        "dists": np.array([0, 1, 65535], dtype=np.uint16),
        "empty": np.empty(0, dtype=np.int64),
    }


class TestRawLayout:
    def test_roundtrip(self, tmp_path):
        path = tmp_path / "group.raw"
        fields = _sample_fields()
        write_raw(path, fields, {"kind": "test"})
        backend = MmapBackend(path)
        assert backend.meta == {"kind": "test"}
        assert set(backend.fields()) == set(fields)
        for name, array in fields.items():
            view = backend.get(name)
            assert np.array_equal(view, array)
            assert view.dtype == array.dtype
            assert not view.flags.writeable

    def test_read_raw_meta(self, tmp_path):
        path = tmp_path / "group.raw"
        write_raw(path, {"a": np.arange(5)}, {"n": 5})
        assert read_raw_meta(path) == {"n": 5}

    def test_mmap_backend_is_read_only(self, tmp_path):
        path = tmp_path / "group.raw"
        write_raw(path, {"a": np.arange(5)}, {})
        backend = MmapBackend(path)
        # No write API at all, and the views themselves refuse writes.
        assert not hasattr(backend, "put") and not hasattr(backend, "empty")
        with pytest.raises(ValueError):
            backend.get("a")[0] = 1

    def test_rejects_non_raw_file(self, tmp_path):
        path = tmp_path / "bogus.raw"
        path.write_bytes(b"definitely not raw layout")
        with pytest.raises(SerializationError):
            MmapBackend(path)

    def test_arrays_are_aligned(self, tmp_path):
        path = tmp_path / "group.raw"
        write_raw(path, _sample_fields(), {})
        backend = MmapBackend(path)
        for name in backend.fields():
            view = backend.get(name)
            if view.size:
                assert view.ctypes.data % 64 == 0, name
