"""Storage for the columnar index arrays: the heap, or one mapped raw file.

Every frozen representation in this library — the 2-hop labels of
:class:`~repro.core.labels.LabelSet`, the precomputed keys of
:class:`~repro.core.query.BatchQueryKernel`, the mask matrices of
:class:`~repro.core.bitparallel.BitParallelLabels` — is a handful of flat
numpy arrays.  They live on the private process heap, or, for the paper's
"disk-based query answering" discussion (Section 6), in one memory-mapped
file: opening a saved index then materialises no heap copy of any array
(zero-copy load; the OS pages label regions in on demand, which is exactly
the two-seeks-per-query access pattern of the paper's disk discussion).

This module owns that file: :func:`write_raw` writes the single-file raw
layout, and :class:`MmapBackend` hands out read-only views into it (used by
``load_index(mmap=True)``).  Array *field names* (``"label_hubs"``,
``"kernel_keys"``, ...) are shared across layers: :mod:`repro.core.serialization`
re-assembles a whole index from a file's field directory.
"""

from __future__ import annotations

import json
import mmap
import os
from pathlib import Path
from typing import Dict, Mapping, Tuple, Union

import numpy as np

from repro.errors import SerializationError

__all__ = [
    "MmapBackend",
    "RAW_MAGIC",
    "write_raw",
    "read_raw_meta",
]

PathLike = Union[str, os.PathLike]

#: Magic bytes opening the single-file raw (mmap-able) index layout.
RAW_MAGIC = b"PLLRAW01"

#: Alignment of every array blob inside a raw file (cache-line / SIMD safe).
_RAW_ALIGN = 64


# ---------------------------------------------------------------------- #
# Raw single-file layout (the mmap-able on-disk format)
# ---------------------------------------------------------------------- #


def _raw_directory(fields: Mapping[str, np.ndarray]) -> Dict[str, Dict]:
    """Field directory with 64-byte-aligned data-relative offsets."""
    directory = {}
    offset = 0
    for field, array in fields.items():
        offset = (offset + _RAW_ALIGN - 1) // _RAW_ALIGN * _RAW_ALIGN
        directory[field] = {
            "dtype": array.dtype.str,
            "shape": list(array.shape),
            "offset": offset,
        }
        offset += array.nbytes
    return directory


def write_raw(path: PathLike, fields: Mapping[str, np.ndarray], meta: Mapping) -> None:
    """Write an array group to the single-file raw layout.

    The layout is ``RAW_MAGIC``, a little-endian ``uint64`` header length,
    the JSON header (field directory + metadata), then each array's raw bytes
    at 64-byte-aligned offsets relative to the (also aligned) data section.
    Arrays are written uncompressed precisely so that :class:`MmapBackend`
    can hand out zero-copy views of them.
    """
    directory = _raw_directory(fields)
    header = json.dumps({"meta": dict(meta), "fields": directory}).encode("utf-8")
    data_start = _aligned_data_start(len(header))
    with open(Path(path), "wb") as handle:
        handle.write(RAW_MAGIC)
        handle.write(np.uint64(len(header)).tobytes())
        handle.write(header)
        handle.write(b"\x00" * (data_start - 16 - len(header)))
        # Blobs land at exactly the offsets the directory advertises — one
        # source of truth, so header and data can never disagree.
        position = 0
        for field, array in fields.items():
            offset = directory[field]["offset"]
            handle.write(b"\x00" * (offset - position))
            contiguous = np.ascontiguousarray(array)
            handle.write(contiguous.tobytes())
            position = offset + contiguous.nbytes


def _aligned_data_start(header_len: int) -> int:
    return (16 + header_len + _RAW_ALIGN - 1) // _RAW_ALIGN * _RAW_ALIGN


def _read_raw_header(path: Path) -> Tuple[Dict, int]:
    """Parse a raw file's header; returns ``(header_dict, data_start)``."""
    with open(path, "rb") as handle:
        magic = handle.read(8)
        if magic != RAW_MAGIC:
            raise SerializationError(f"{path} is not a raw-layout index file")
        (header_len,) = np.frombuffer(handle.read(8), dtype=np.uint64)
        header = json.loads(handle.read(int(header_len)).decode("utf-8"))
    return header, _aligned_data_start(int(header_len))


def read_raw_meta(path: PathLike) -> Dict:
    """Read only the metadata record of a raw-layout file (no array access)."""
    header, _ = _read_raw_header(Path(path))
    return header["meta"]


class MmapBackend:
    """Read-only zero-copy views over a raw-layout file.

    The file is mapped once, and every array is a read-only plain
    ``np.ndarray`` view into that memory map: nothing is read from disk until
    a query touches the corresponding pages, and nothing is ever copied onto
    the heap.  The views are deliberately not ``np.memmap`` instances — that
    subclass runs Python-level hooks (``__array_finalize__``,
    ``__array_wrap__``) on every numpy call that touches it, which dominated
    the cost of the small per-query operations.  The file is the source of
    truth; the views cannot be written.  Each view holds the map through its
    ``.base``, so the mapping outlives :meth:`close` for as long as any index
    built over the views does.
    """

    def __init__(self, path: PathLike) -> None:
        self.path = Path(path)
        header, data_start = _read_raw_header(self.path)
        self.meta: Dict = header["meta"]
        with open(self.path, "rb") as handle:
            mapping = mmap.mmap(handle.fileno(), 0, access=mmap.ACCESS_READ)
        self._arrays: Dict[str, np.ndarray] = {
            field: np.ndarray(
                tuple(spec["shape"]),
                dtype=np.dtype(spec["dtype"]),
                buffer=mapping,
                offset=data_start + int(spec["offset"]),
            )
            for field, spec in header["fields"].items()
        }

    def get(self, field: str) -> np.ndarray:
        return self._arrays[field]

    def fields(self) -> Tuple[str, ...]:
        return tuple(self._arrays)

    def close(self) -> None:
        """Drop the mapped views (the OS unmaps once no view remains)."""
        self._arrays.clear()
