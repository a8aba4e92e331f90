"""Saving and loading pruned-landmark-labeling indexes.

The paper points out (Section 6, "Disk-based Query Answering") that because a
query touches only the two contiguous label regions of its endpoints, the
index can live on disk and still answer queries with two seeks.  This module
provides two on-disk formats over one array-group view of an index:

* ``.npz`` — a compressed archive (the historical format; smallest files).
* raw — the single-file aligned layout of :func:`repro.core.storage.write_raw`,
  chosen automatically for any output path *not* ending in ``.npz``.  Raw
  files are uncompressed so that ``load_index(path, mmap=True)`` can open
  them **zero-copy**: every array is a read-only ndarray view of one memory
  map of the file, and the OS pages label regions in on demand — the paper's
  disk-based serving shape, and the fastest way to get a large index serving
  (nothing is decompressed or copied at load time).  The views are plain
  ``np.ndarray`` rather than ``np.memmap``, whose per-call Python hooks would
  otherwise dominate the small numpy operations of a scalar query (see
  :class:`~repro.core.storage.MmapBackend`).

A loaded index answers queries without access to the original graph.

The :func:`index_to_arrays` / :func:`index_from_arrays` pair is the single
source of truth for the field layout; both file formats are thin wrappers
over it.
"""

from __future__ import annotations

import json
import os
from pathlib import Path
from typing import Callable, Dict, Tuple, Union

import numpy as np

from repro._version import __version__
from repro.core import storage
from repro.core.bitparallel import BitParallelLabels
from repro.core.index import PrunedLandmarkLabeling
from repro.core.kernels import FIELD_KERNEL_KEYS, BatchQueryKernel
from repro.core.labels import LabelSet
from repro.core.storage import MmapBackend, write_raw
from repro.errors import SerializationError

__all__ = [
    "save_index",
    "load_index",
    "load_index_metadata",
    "index_to_arrays",
    "index_from_arrays",
    "FORMAT_VERSION",
]

PathLike = Union[str, os.PathLike]

#: Version tag embedded in every archive; bumped on incompatible layout changes.
FORMAT_VERSION = 1


# ---------------------------------------------------------------------- #
# Array-group view of an index (shared by every storage medium)
# ---------------------------------------------------------------------- #


def index_to_arrays(
    index: PrunedLandmarkLabeling, *, include_kernel: bool = False
) -> Tuple[Dict[str, np.ndarray], Dict]:
    """Flatten a built index into ``(fields, metadata)``.

    ``fields`` maps storage field names to flat numpy arrays (bit-parallel
    root sets are ragged and therefore stored flattened with offsets);
    ``metadata`` is the small JSON-able record.  With ``include_kernel`` the
    precomputed batch-kernel key array rides along, so a loading process
    can skip the O(total label entries) kernel derivation.
    """
    if not index.built:
        raise SerializationError("cannot save an index that has not been built")
    labels = index.label_set
    bit_parallel = index.bit_parallel_labels

    set_sizes = np.array([len(s) for s in bit_parallel.root_sets], dtype=np.int64)
    set_indptr = np.zeros(set_sizes.shape[0] + 1, dtype=np.int64)
    np.cumsum(set_sizes, out=set_indptr[1:])
    set_members = np.array(
        [v for group in bit_parallel.root_sets for v in group], dtype=np.int64
    )

    fields: Dict[str, np.ndarray] = {
        "label_indptr": labels.indptr,
        "label_hubs": labels.hub_ranks,
        "label_dists": labels.distances,
        "order": labels.order,
        "bp_roots": bit_parallel.roots,
        "bp_dist": bit_parallel.dist,
        "bp_s_minus": bit_parallel.s_minus,
        "bp_s_zero": bit_parallel.s_zero,
        "bp_set_indptr": set_indptr,
        "bp_set_members": set_members,
    }
    metadata = {
        "format_version": FORMAT_VERSION,
        "library_version": __version__,
        "num_vertices": labels.num_vertices,
        "num_bit_parallel_roots": bit_parallel.num_roots,
        "ordering": index.ordering,
    }
    if include_kernel:
        fields[FIELD_KERNEL_KEYS] = index.prepare_batch_kernel().keys
    return fields, metadata


def index_from_arrays(
    get: Callable[[str], np.ndarray],
    metadata: Dict,
    *,
    has_kernel: bool = False,
) -> PrunedLandmarkLabeling:
    """Reassemble an index from a field lookup (inverse of :func:`index_to_arrays`).

    ``get`` returns the array stored under a field name — an npz archive
    lookup or memory-map views; the arrays are used as-is (no copy), so
    zero-copy sources stay zero-copy (a mapped view keeps its map alive
    through its own ``.base``).

    Fields the layout does not name are never read: files written before the
    kernel stored one key array still carry five derived ``kernel_*`` arrays
    and a ``kernel_plan`` record, and load as if they did not.
    """
    labels = LabelSet(
        get("label_indptr"),
        get("label_hubs"),
        get("label_dists"),
        get("order"),
    )
    set_indptr = get("bp_set_indptr")
    set_members = get("bp_set_members")
    root_sets = [
        [int(v) for v in set_members[set_indptr[i]: set_indptr[i + 1]]]
        for i in range(set_indptr.shape[0] - 1)
    ]
    bit_parallel = BitParallelLabels(
        roots=get("bp_roots"),
        root_sets=root_sets,
        dist=get("bp_dist"),
        s_minus=get("bp_s_minus"),
        s_zero=get("bp_s_zero"),
    )
    index = PrunedLandmarkLabeling(
        ordering=metadata.get("ordering", "degree"),
        num_bit_parallel_roots=int(metadata.get("num_bit_parallel_roots", 0)),
    )
    index._labels = labels
    index._bit_parallel = bit_parallel
    index._order = labels.order
    index._graph = None
    if has_kernel:
        index._batch_kernel = BatchQueryKernel.from_arrays(labels, get(FIELD_KERNEL_KEYS))
    return index


# ---------------------------------------------------------------------- #
# Disk formats
# ---------------------------------------------------------------------- #


def save_index(index: PrunedLandmarkLabeling, path: PathLike) -> None:
    """Serialise a built index to ``path``.

    Paths ending in ``.npz`` get the compressed archive; any other suffix
    gets the raw single-file layout, which loads faster and supports
    zero-copy ``load_index(path, mmap=True)``.

    Raises
    ------
    SerializationError
        If the index has not been built yet.
    """
    path = Path(path)
    if path.suffix == ".npz":
        fields, metadata = index_to_arrays(index)
        np.savez_compressed(
            path,
            metadata=np.frombuffer(
                json.dumps(metadata).encode("utf-8"), dtype=np.uint8
            ),
            **fields,
        )
    else:
        # Raw files carry the precomputed kernel keys: a zero-copy (mmap)
        # load must not have to derive an O(total label entries) heap array
        # before it can answer its first batch.
        fields, metadata = index_to_arrays(index, include_kernel=True)
        write_raw(path, fields, metadata)


def _decode_npz_metadata(archive) -> dict:
    """Decode the metadata record of an open npz archive."""
    return json.loads(bytes(archive["metadata"]).decode("utf-8"))


def _check_format(metadata: dict) -> dict:
    if metadata.get("format_version") != FORMAT_VERSION:
        raise SerializationError(
            f"unsupported index format version {metadata.get('format_version')}"
        )
    return metadata


def _is_raw_file(path: Path) -> bool:
    with open(path, "rb") as handle:
        return handle.read(len(storage.RAW_MAGIC)) == storage.RAW_MAGIC


def load_index_metadata(path: PathLike) -> dict:
    """Read only the metadata record of a saved index (either format).

    Cheap relative to :func:`load_index` (the label arrays are not
    decompressed or mapped), which makes it suitable for the serving layer's
    snapshot reload path: a server can inspect an archive — vertex count,
    format version, bit-parallel configuration — before deciding to hot-swap
    it in.
    """
    path = Path(path)
    if not path.exists():
        raise SerializationError(f"index file {path} does not exist")
    try:
        if _is_raw_file(path):
            return _check_format(storage.read_raw_meta(path))
        with np.load(path, allow_pickle=False) as archive:
            return _check_format(_decode_npz_metadata(archive))
    except SerializationError:
        raise
    except Exception as exc:
        raise SerializationError(f"failed to read metadata from {path}: {exc}") from exc


def load_index(path: PathLike, *, mmap: bool = False) -> PrunedLandmarkLabeling:
    """Load an index previously written by :func:`save_index`.

    The returned oracle answers :meth:`~PrunedLandmarkLabeling.distance`
    queries immediately; its ``graph`` attribute is ``None`` because the graph
    itself is not part of the archive.

    Parameters
    ----------
    path:
        Either format written by :func:`save_index` (sniffed by magic bytes).
    mmap:
        Zero-copy load: every array is a **read-only** ndarray view of a
        memory map of the file, paged in on demand, never copied onto the
        heap.
        Requires the raw layout — compressed npz archives cannot be mapped;
        re-save with a non-``.npz`` suffix to use this.
    """
    path = Path(path)
    if not path.exists():
        raise SerializationError(f"index file {path} does not exist")
    try:
        if _is_raw_file(path):
            backend = MmapBackend(path)
            metadata = _check_format(dict(backend.meta))
            has_kernel = FIELD_KERNEL_KEYS in backend.fields()
            if mmap:
                return index_from_arrays(backend.get, metadata, has_kernel=has_kernel)
            # Heap load from a raw file: copy out the views the index reads,
            # then drop the map.
            try:
                return index_from_arrays(
                    lambda field: backend.get(field).copy(),
                    metadata,
                    has_kernel=has_kernel,
                )
            finally:
                backend.close()
        if mmap:
            raise SerializationError(
                f"{path} is a compressed npz archive, which cannot be "
                f"memory-mapped; save the index with a non-.npz suffix to "
                f"get the zero-copy raw layout"
            )
        with np.load(path, allow_pickle=False) as archive:
            metadata = _check_format(_decode_npz_metadata(archive))
            arrays = {name: archive[name] for name in archive.files if name != "metadata"}
        return index_from_arrays(arrays.__getitem__, metadata)
    except SerializationError:
        raise
    except Exception as exc:  # malformed archive, wrong keys, bad JSON, ...
        raise SerializationError(f"failed to load index from {path}: {exc}") from exc
