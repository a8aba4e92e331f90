"""Backend-agnostic storage for the columnar index arrays.

Every frozen representation in this library — the 2-hop labels of
:class:`~repro.core.labels.LabelSet`, the precomputed keys of
:class:`~repro.core.query.BatchQueryKernel`, the mask matrices of
:class:`~repro.core.bitparallel.BitParallelLabels` — is a handful of flat
numpy arrays.  Historically those arrays always lived on the private process
heap, which rules out two serving configurations the paper's
"disk-based query answering" discussion (Section 6) and the multi-core
follow-ons both need:

* **Shared memory** — several worker *processes* answering query batches
  against the same label arrays without copying them per request (the GIL
  bypass for multi-core serving).
* **Memory mapping** — opening a saved index without materialising a heap
  copy of every array (zero-copy load; the OS pages label regions in on
  demand, which is exactly the two-seeks-per-query access pattern of the
  paper's disk discussion).

This module abstracts the *allocation* of those arrays behind the
:class:`ArrayBackend` protocol with three implementations:

* :class:`HeapBackend` — plain ``np.empty`` allocation; the default, with
  zero overhead over the historical behaviour.
* :class:`SharedMemoryBackend` — one POSIX shared-memory segment per array
  (plus a small sealed metadata segment), named under a common prefix so a
  cooperating process can attach the whole array group by name.
* :class:`MmapBackend` — read-only views into the single-file raw layout
  written by :func:`write_raw` (used by ``load_index(mmap=True)``).

Array *field names* (``"label_hubs"``, ``"kernel_keys"``, ...) are shared
across layers: the allocating layer registers an array under its field name,
and :mod:`repro.core.serialization` re-assembles a whole index from a
backend's field directory.  Backends own segment lifetime only; refcounted
*generation* retirement for the serving layer is layered on top by
:class:`SharedGeneration`.
"""

from __future__ import annotations

import json
import mmap
import os
import secrets
import threading
from multiprocessing import shared_memory
from pathlib import Path
from typing import Dict, Mapping, Optional, Protocol, Sequence, Tuple, Union

import numpy as np

from repro.errors import SerializationError, ServingError

__all__ = [
    "ArrayBackend",
    "HeapBackend",
    "SharedMemoryBackend",
    "MmapBackend",
    "SharedGeneration",
    "RAW_MAGIC",
    "write_raw",
    "read_raw_meta",
    "new_shared_prefix",
]

PathLike = Union[str, os.PathLike]

#: Magic bytes opening the single-file raw (mmap-able) index layout.
RAW_MAGIC = b"PLLRAW01"

#: Alignment of every array blob inside a raw file (cache-line / SIMD safe).
_RAW_ALIGN = 64


class ArrayBackend(Protocol):
    """Allocation + lookup protocol for one group of named numpy arrays.

    A backend hands out numpy arrays whose *buffers* it owns (heap, shared
    memory or a mapped file) and remembers them under caller-chosen field
    names so that the whole group can be re-assembled later — by the same
    process (:meth:`get`) or, for the shared-memory backend, by a different
    one (:meth:`SharedMemoryBackend.attach`).
    """

    @property
    def writable(self) -> bool:
        """Whether :meth:`empty` / :meth:`put` are available."""
        ...

    def empty(
        self, field: str, shape: Sequence[int], dtype: np.dtype
    ) -> np.ndarray:
        """Allocate an uninitialised array for ``field`` and register it."""
        ...

    def put(self, field: str, array: np.ndarray) -> np.ndarray:
        """Place ``array``'s contents into the backend under ``field``."""
        ...

    def get(self, field: str) -> np.ndarray:
        """The array registered under ``field``."""
        ...

    def fields(self) -> Tuple[str, ...]:
        """Names of every registered array."""
        ...


class HeapBackend:
    """The default backend: private in-process heap arrays.

    ``put`` stores the array *by reference* (no copy): heap callers treat
    registered arrays as immutable, and copying would reintroduce exactly the
    overhead this backend exists to avoid.
    """

    writable = True

    def __init__(self) -> None:
        self._arrays: Dict[str, np.ndarray] = {}

    def empty(
        self, field: str, shape: Sequence[int], dtype: np.dtype
    ) -> np.ndarray:
        array = np.empty(tuple(shape), dtype=dtype)
        self._arrays[field] = array
        return array

    def put(self, field: str, array: np.ndarray) -> np.ndarray:
        array = np.asarray(array)
        self._arrays[field] = array
        return array

    def get(self, field: str) -> np.ndarray:
        return self._arrays[field]

    def fields(self) -> Tuple[str, ...]:
        return tuple(self._arrays)


def new_shared_prefix(tag: str = "pll") -> str:
    """A collision-resistant prefix for one group of shared-memory segments."""
    return f"{tag}-{os.getpid():x}-{secrets.token_hex(3)}"


def _attach_segment(name: str) -> shared_memory.SharedMemory:
    """Attach an existing segment without registering it with the resource tracker.

    CPython < 3.13 registers *attaching* processes with the resource tracker
    too (gh-82300), which makes the tracker clean up segments the attaching
    process does not own — exactly wrong for the worker processes here, where
    the creating process owns unlink.  Suppress the registration for the
    duration of the attach (``unregister`` afterwards would be worse: forked
    workers share the creator's tracker, so it would erase the *creator's*
    registration).  On 3.13+ ``track=False`` does this natively.
    """
    try:
        return shared_memory.SharedMemory(name=name, track=False)  # type: ignore[call-arg]
    except TypeError:
        pass
    from multiprocessing import resource_tracker

    original_register = resource_tracker.register
    resource_tracker.register = lambda *args, **kwargs: None
    try:
        return shared_memory.SharedMemory(name=name)
    finally:
        resource_tracker.register = original_register


class SharedMemoryBackend:
    """Array group in named POSIX shared memory, attachable across processes.

    Each array occupies one segment named ``{prefix}.{field}``; a final
    ``{prefix}.meta`` segment, written by :meth:`seal`, holds a JSON
    directory of every field's dtype and shape plus caller metadata.  Only
    sealed groups can be attached, so an attaching process can never observe
    a half-exported index.

    Use :meth:`create` in the exporting process and :meth:`attach` (arrays
    come back read-only) in workers.  ``close`` releases this process's
    mappings; ``unlink`` removes the segments system-wide (creator only).
    """

    #: Field directory segment suffix.
    _META = "meta"

    def __init__(
        self,
        prefix: str,
        *,
        _writable: bool,
    ) -> None:
        self.prefix = prefix
        self._writable = _writable
        self._segments: Dict[str, shared_memory.SharedMemory] = {}
        self._arrays: Dict[str, np.ndarray] = {}
        self._sealed = False
        self.meta: Dict = {}

    # ------------------------------------------------------------------ #
    # Constructors
    # ------------------------------------------------------------------ #

    @classmethod
    def create(cls, prefix: Optional[str] = None) -> "SharedMemoryBackend":
        """Start a new (writable, unsealed) segment group."""
        return cls(prefix if prefix is not None else new_shared_prefix(), _writable=True)

    @classmethod
    def attach(cls, prefix: str) -> "SharedMemoryBackend":
        """Attach a sealed group by prefix; arrays are read-only views."""
        backend = cls(prefix, _writable=False)
        try:
            meta_segment = _attach_segment(f"{prefix}.{cls._META}")
        except FileNotFoundError:
            raise ServingError(
                f"shared-memory index group {prefix!r} does not exist (never "
                f"sealed, or already retired)"
            ) from None
        backend._segments[cls._META] = meta_segment
        header = json.loads(bytes(meta_segment.buf).rstrip(b"\x00").decode("utf-8"))
        backend.meta = header["meta"]
        for field, spec in header["fields"].items():
            segment = _attach_segment(f"{prefix}.{field}")
            backend._segments[field] = segment
            array = np.ndarray(
                tuple(spec["shape"]), dtype=np.dtype(spec["dtype"]), buffer=segment.buf
            )
            array.flags.writeable = False
            backend._arrays[field] = array
        backend._sealed = True
        return backend

    # ------------------------------------------------------------------ #
    # ArrayBackend protocol
    # ------------------------------------------------------------------ #

    @property
    def writable(self) -> bool:
        return self._writable and not self._sealed

    def _segment_name(self, field: str) -> str:
        if "." in field or "/" in field:
            raise ValueError(f"invalid shared-memory field name {field!r}")
        return f"{self.prefix}.{field}"

    def empty(
        self, field: str, shape: Sequence[int], dtype: np.dtype
    ) -> np.ndarray:
        if not self.writable:
            raise ServingError(
                f"shared-memory group {self.prefix!r} is sealed or attached "
                f"read-only; cannot allocate {field!r}"
            )
        if field == self._META or field in self._arrays:
            raise ValueError(f"field {field!r} is reserved or already allocated")
        dtype = np.dtype(dtype)
        shape = tuple(int(s) for s in shape)
        nbytes = int(np.prod(shape, dtype=np.int64)) * dtype.itemsize
        segment = shared_memory.SharedMemory(
            name=self._segment_name(field), create=True, size=max(nbytes, 1)
        )
        array = np.ndarray(shape, dtype=dtype, buffer=segment.buf)
        self._segments[field] = segment
        self._arrays[field] = array
        return array

    def put(self, field: str, array: np.ndarray) -> np.ndarray:
        array = np.asarray(array)
        destination = self.empty(field, array.shape, array.dtype)
        if array.size:
            destination[...] = array
        return destination

    def get(self, field: str) -> np.ndarray:
        return self._arrays[field]

    def fields(self) -> Tuple[str, ...]:
        return tuple(self._arrays)

    # ------------------------------------------------------------------ #
    # Lifecycle
    # ------------------------------------------------------------------ #

    def seal(self, meta: Optional[Mapping] = None) -> None:
        """Write the field directory; the group becomes attachable and frozen."""
        if self._sealed:
            raise ServingError(f"shared-memory group {self.prefix!r} already sealed")
        self.meta = dict(meta) if meta else {}
        header = json.dumps(
            {
                "meta": self.meta,
                "fields": {
                    field: {
                        "dtype": array.dtype.str,
                        "shape": list(array.shape),
                    }
                    for field, array in self._arrays.items()
                },
            }
        ).encode("utf-8")
        segment = shared_memory.SharedMemory(
            name=self._segment_name(self._META), create=True, size=max(len(header), 1)
        )
        segment.buf[: len(header)] = header
        self._segments[self._META] = segment
        self._sealed = True

    def nbytes(self) -> int:
        """Total bytes held in the group's segments."""
        return sum(segment.size for segment in self._segments.values())

    def close(self) -> None:
        """Release this process's mappings (arrays become invalid).

        Mappings with live numpy views cannot be released (the OS keeps the
        memory alive anyway); those are left to the garbage collector.
        """
        self._arrays.clear()
        for segment in self._segments.values():
            try:
                segment.close()
            except BufferError:  # view still referenced somewhere
                pass

    def unlink(self) -> None:
        """Remove every segment system-wide (names disappear from ``/dev/shm``).

        Existing mappings — this process's arrays, workers mid-batch — stay
        valid until their holders drop them; only the *names* go away, so no
        new attach can start.
        """
        for segment in self._segments.values():
            try:
                segment.unlink()
            except FileNotFoundError:  # pragma: no cover - double unlink race
                pass


class SharedGeneration:
    """One published shared-memory index generation with refcounted retirement.

    The serving layer publishes each snapshot as a sealed
    :class:`SharedMemoryBackend` group.  Readers (the sharded engine, on
    behalf of its in-flight worker batches) bracket their use with
    :meth:`acquire` / :meth:`release`; when the publisher supersedes the
    generation it calls :meth:`retire`, and the segments are unlinked as soon
    as the last reader releases — in-flight batches always finish on the
    generation they started on, and ``/dev/shm`` never accumulates retired
    generations.
    """

    def __init__(self, backend: SharedMemoryBackend) -> None:
        self._backend = backend
        self._lock = threading.Lock()
        self._readers = 0
        self._retired = False
        self._unlinked = False

    @property
    def name(self) -> str:
        """The generation's shared-memory prefix (what workers attach)."""
        return self._backend.prefix

    @property
    def backend(self) -> SharedMemoryBackend:
        """The underlying sealed segment group."""
        return self._backend

    @property
    def retired(self) -> bool:
        """Whether the publisher has superseded this generation."""
        with self._lock:
            return self._retired

    @property
    def unlinked(self) -> bool:
        """Whether the segments have been removed system-wide."""
        with self._lock:
            return self._unlinked

    def acquire(self) -> bool:
        """Register a reader; ``False`` when the generation is already gone
        (the caller should re-read the current snapshot and retry)."""
        with self._lock:
            if self._unlinked:
                return False
            self._readers += 1
            return True

    def release(self) -> None:
        """Drop one reader; unlinks immediately if retired and now unread."""
        with self._lock:
            self._readers -= 1
            if self._readers < 0:  # pragma: no cover - caller bug guard
                raise RuntimeError("SharedGeneration.release without acquire")
            self._maybe_unlink_locked()

    def retire(self) -> None:
        """Mark superseded; unlinks now or when the last reader releases."""
        with self._lock:
            self._retired = True
            self._maybe_unlink_locked()

    def _maybe_unlink_locked(self) -> None:
        if self._retired and self._readers == 0 and not self._unlinked:
            self._backend.unlink()
            self._unlinked = True


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
    truth; the views cannot be written.
    """

    writable = False

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

    def empty(self, field: str, shape, dtype) -> np.ndarray:
        raise SerializationError("MmapBackend is read-only")

    def put(self, field: str, array: np.ndarray) -> np.ndarray:
        raise SerializationError("MmapBackend is read-only")

    def get(self, field: str) -> np.ndarray:
        return self._arrays[field]

    def fields(self) -> Tuple[str, ...]:
        return tuple(self._arrays)

    def close(self) -> None:
        """Drop the mapped views (the OS unmaps once no view remains)."""
        self._arrays.clear()
