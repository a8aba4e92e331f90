"""The batch kernel: many label merges per call, in flat numpy operations.

The paper answers one query with one merge of two rank-sorted labels
(Section 4.5).  Under the interpreter that merge costs a few microseconds of
call overhead per pair, so the serving path answers whole batches at once:
:class:`BatchQueryKernel` runs the pair merge (:meth:`~BatchQueryKernel.
query_pairs`), the one-to-many scan (:meth:`~BatchQueryKernel.
query_one_to_many`) and, for the dynamic oracle's repair BFSs, the rooted
probe (:func:`rooted_probe`), each written once.

The kernel reads the label set's own arrays plus one derived key array.
Array widths follow from the index alone (:func:`key_dtype`,
:func:`sum_dtype`):

* keys ``owner * n + hub_rank`` are ``uint32`` when ``n**2 - 1 < 2**32``,
  else ``int64`` — half the bytes to binary-search on every index that
  fits;
* distances are the label set's ``uint16`` array, never copied;
* pair sums are ``uint16`` while the largest label distance is at most
  :data:`MAX_UINT16_SUM_DISTANCE`, else ``int32``.

Results are ``float64`` distances, ``inf`` where two labels share no hub,
identical to the scalar :meth:`~repro.core.labels.LabelSet.query`.
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence, Tuple

import numpy as np

from repro.core.labels import LabelSet
from repro.core.storage import ArrayBackend

__all__ = [
    "BatchQueryKernel",
    "FIELD_KERNEL_KEYS",
    "MAX_UINT16_SUM_DISTANCE",
    "key_dtype",
    "sum_dtype",
    "rooted_probe",
    "registered_kernels",
]

#: Backend field name of the stored kernel key array (raw files and
#: shared-memory generations; see :mod:`repro.core.storage`).
FIELD_KERNEL_KEYS = "kernel_keys"

#: Largest label distance the ``uint16`` sum width carries.  The
#: one-to-many scatter marks hubs absent from the source label with
#: ``2 * (MAX + 1)`` (:func:`_absent_marker`): every real sum, at most
#: ``2 * MAX``, stays below that marker, and the marker plus a distance stays
#: at most ``2**16 - 1``.
MAX_UINT16_SUM_DISTANCE = np.iinfo(np.uint16).max // 3 - 1


def key_dtype(num_vertices: int) -> np.dtype:
    """Width of the ``owner * n + hub_rank`` keys for an ``n``-vertex index."""
    if num_vertices * num_vertices - 1 < 2**32:
        return np.dtype(np.uint32)
    return np.dtype(np.int64)


def sum_dtype(distances: np.ndarray) -> np.dtype:
    """Width of label-distance sums over a label set's ``distances``."""
    largest = int(distances.max()) if distances.shape[0] else 0
    if largest <= MAX_UINT16_SUM_DISTANCE:
        return np.dtype(np.uint16)
    return np.dtype(np.int32)


def _absent_marker(sum_type):
    """Scatter value of a hub absent from the source label (see above)."""
    return sum_type(np.iinfo(sum_type).max // 3 * 2)


def _as_distances(minima: np.ndarray, positions: np.ndarray, count: int, limit) -> np.ndarray:
    """``float64`` distances: ``minima[i]`` at ``positions[i]`` where below ``limit``."""
    result = np.full(count, np.inf, dtype=np.float64)
    found = minima < limit
    result[positions[found]] = minima[found]
    return result


def _ragged_gather(indptr: np.ndarray, sizes: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Flat entry positions of the labels with ``indptr`` starts and ``sizes``.

    Returns ``(flat, group_starts)``: the concatenated entry positions and
    where each label's run begins in ``flat``.
    """
    group_starts = np.zeros(sizes.shape[0], dtype=np.int64)
    np.cumsum(sizes[:-1], out=group_starts[1:])
    total = int(group_starts[-1] + sizes[-1]) if sizes.shape[0] else 0
    offsets = np.arange(total, dtype=np.int64) - np.repeat(group_starts, sizes)
    return np.repeat(indptr, sizes) + offsets, group_starts


class BatchQueryKernel:
    """Vectorised evaluator answering many ``(s, t)`` pairs per call.

    1. At construction, every label entry is encoded into one sorted key
       ``owner_vertex * n + hub_rank``.  The flat label arrays are grouped by
       vertex and rank-sorted within each vertex, so the key array is
       globally sorted.
    2. Per batch, the label entries of the *smaller* endpoint of each pair
       are gathered into one flat array, and each entry is probed against the
       other endpoint's label with one ``searchsorted`` over the keys.
    3. Matching entries contribute ``d(s, w) + d(w, t)``; per-pair minima are
       taken with ``np.minimum.reduceat`` over the ragged group boundaries.

    The cost is ``O(sum_i min(|L(s_i)|, |L(t_i)|) * log E)`` machine-level
    operations for the whole batch, with no per-pair Python work.  The
    ``s == t`` short-circuit and the bit-parallel minimum are the caller's
    business, as they are for the scalar query.
    """

    __slots__ = (
        "_keys",
        "_dists",
        "_indptr",
        "_hub_ranks",
        "_sizes",
        "_stride",
        "_sum_type",
        "_hub_major",
    )

    def __init__(
        self, labels: LabelSet, *, backend: Optional[ArrayBackend] = None
    ) -> None:
        # With ``backend``, the derived key array is allocated from it, so a
        # shared-memory snapshot carries the kernel and attaching workers
        # skip the O(total entries) derivation.
        key_type = key_dtype(labels.num_vertices)
        owners = np.repeat(
            np.arange(labels.num_vertices, dtype=key_type), labels.label_sizes()
        )
        keys = owners * key_type.type(max(labels.num_vertices, 1))
        keys += labels.hub_ranks.astype(key_type)
        self._bind(labels, keys if backend is None else backend.put(FIELD_KERNEL_KEYS, keys))

    def _bind(self, labels: LabelSet, keys: np.ndarray) -> None:
        """Share ``labels``' arrays (never copied) beside ``keys``."""
        self._keys = keys
        self._hub_ranks = labels.hub_ranks
        self._dists = labels.distances
        self._indptr = labels.indptr
        self._sizes = labels.label_sizes()
        self._stride = keys.dtype.type(max(labels.num_vertices, 1))
        self._sum_type = sum_dtype(labels.distances).type
        self._hub_major: Optional[Tuple[np.ndarray, np.ndarray, np.ndarray]] = None

    @classmethod
    def from_arrays(cls, labels: LabelSet, keys: np.ndarray) -> "BatchQueryKernel":
        """Reassemble a kernel from ``labels`` plus a stored key array.

        The attach path of stored generations (raw files, shared memory):
        ``keys`` is the encoding a previous kernel derived for exactly these
        labels, so nothing is recomputed beyond the O(n) size table and one
        max over the distances (the sum width).  Keys stored in another
        width (files written before the width rule) are cast once here; keys
        already in the rule's width are used as-is, so zero-copy sources
        stay zero-copy.
        """
        if keys.shape != labels.hub_ranks.shape:
            raise ValueError(
                f"kernel key array has {keys.shape[0]} entries for "
                f"{labels.hub_ranks.shape[0]} label entries"
            )
        kernel = cls.__new__(cls)
        kernel._bind(labels, np.asarray(keys, dtype=key_dtype(labels.num_vertices)))
        return kernel

    @property
    def num_vertices(self) -> int:
        """Number of vertices covered by the kernel."""
        return self._sizes.shape[0]

    @property
    def keys(self) -> np.ndarray:
        """The sorted ``owner * n + hub_rank`` key array (read-mostly)."""
        return self._keys

    @property
    def backend_name(self) -> str:
        """The key layout: ``"narrow"`` (``uint32`` keys) or ``"wide"``."""
        return "narrow" if self._keys.dtype == np.uint32 else "wide"

    def patched(
        self,
        labels: LabelSet,
        dirty_vertices,
        *,
        backend: Optional[ArrayBackend] = None,
    ) -> "BatchQueryKernel":
        """Rebuild the kernel for ``labels``, reusing this kernel's keys.

        ``labels`` must derive from this kernel's label set with only the
        labels of ``dirty_vertices`` changed (the contract of
        :meth:`LabelSet.patched`).  Keys encode ``owner * n + hub_rank`` —
        both unchanged outside the dirty vertices — so every untouched run is
        block-copied and only the dirty segments are re-encoded.  This keeps
        diff-based snapshot publication free of the O(total label entries)
        kernel rebuild.  With ``backend``, the new key array is patched
        directly into it (e.g. the next shared-memory generation).
        """
        num_vertices = labels.num_vertices
        if num_vertices != self.num_vertices:
            return BatchQueryKernel(labels, backend=backend)
        new_indptr = labels.indptr
        total = int(new_indptr[-1])
        key_type = self._keys.dtype
        if backend is None:
            new_keys = np.empty(total, dtype=key_type)
        else:
            new_keys = backend.empty(FIELD_KERNEL_KEYS, (total,), key_type)
        run_start = 0
        for vertex in sorted(int(v) for v in dirty_vertices) + [num_vertices]:
            if run_start < vertex:
                src0, src1 = self._indptr[run_start], self._indptr[vertex]
                dst0 = new_indptr[run_start]
                new_keys[dst0: dst0 + (src1 - src0)] = self._keys[src0:src1]
            if vertex < num_vertices:
                hubs, _ = labels.vertex_label(vertex)
                dst0, dst1 = new_indptr[vertex], new_indptr[vertex + 1]
                new_keys[dst0:dst1] = key_type.type(vertex) * self._stride + hubs.astype(key_type)
            run_start = vertex + 1
        kernel = BatchQueryKernel.__new__(BatchQueryKernel)
        kernel._bind(labels, new_keys)
        return kernel

    def query_pairs(self, sources: np.ndarray, targets: np.ndarray) -> np.ndarray:
        """Label distances for aligned ``sources[i], targets[i]`` pairs.

        Returns a ``float64`` array (``inf`` where no common hub exists).
        Inputs must be in-range vertex ids; callers validate.
        """
        sources = np.asarray(sources, dtype=np.int64)
        targets = np.asarray(targets, dtype=np.int64)
        if sources.shape != targets.shape:
            raise ValueError("sources and targets must have the same length")
        sizes = self._sizes
        # Enumerate the smaller label of each pair, probe the larger one.
        swap = sizes[targets] < sizes[sources]
        probe_side = np.where(swap, sources, targets)
        enum_side = np.where(swap, targets, sources)
        enum_sizes = sizes[enum_side]
        flat, group_starts = _ragged_gather(self._indptr[enum_side], enum_sizes)
        nonempty = np.flatnonzero(enum_sizes)
        if flat.shape[0] == 0:
            return np.full(sources.shape[0], np.inf, dtype=np.float64)

        # One binary search per entry against the probe endpoint's label.
        keys = self._keys
        key_type = keys.dtype
        probe_keys = np.repeat(probe_side.astype(key_type), enum_sizes) * self._stride
        probe_keys += self._hub_ranks[flat].astype(key_type)
        positions = np.searchsorted(keys, probe_keys)
        np.minimum(positions, keys.shape[0] - 1, out=positions)
        no_hub = self._sum_type(np.iinfo(self._sum_type).max)
        sums = np.where(
            keys[positions] == probe_keys,
            self._dists[flat].astype(self._sum_type) + self._dists[positions],
            no_hub,
        )
        # Empty groups are left out of the reduceat index list: a clipped
        # index would truncate the preceding group's window, which ends at
        # the next index whatever group it belongs to.
        minima = np.minimum.reduceat(sums, group_starts[nonempty])
        return _as_distances(minima, nonempty, sources.shape[0], no_hub)

    def query_one_to_many(
        self, source: int, targets: Optional[Sequence[int]] = None
    ) -> np.ndarray:
        """Label distances from one source to many targets (all when ``None``).

        Returns ``float64`` distances aligned with ``targets`` (``inf`` where
        no common hub exists).  No ``source == target`` zeroing is applied —
        the index facade does that after folding in the bit-parallel bound.
        """
        s0, s1 = self._indptr[source], self._indptr[source + 1]
        source_hubs = self._hub_ranks[s0:s1]
        source_dists = self._dists[s0:s1]
        sum_type = self._sum_type
        no_hub = sum_type(np.iinfo(sum_type).max)

        if targets is None:
            # Hub-major scan: one contiguous block of (owner, distance) per
            # source hub, updated with one gather/scatter each.  Owners are
            # unique within a block, so the fancy-index minimum loses no
            # update.
            hub_indptr, hub_owners, hub_dists = self._hub_major_arrays()
            best = np.full(self.num_vertices, no_hub, dtype=sum_type)
            starts = hub_indptr[source_hubs].tolist()
            stops = hub_indptr[source_hubs + 1].tolist()
            for b0, b1, distance in zip(starts, stops, source_dists.tolist()):
                owners = hub_owners[b0:b1]
                best[owners] = np.minimum(best[owners], hub_dists[b0:b1] + sum_type(distance))
            result = best.astype(np.float64)
            result[best == no_hub] = np.inf
            return result

        # Subset scan: scatter the source label into a rank-indexed
        # temporary once, then every target entry is one gather and one add.
        absent = _absent_marker(sum_type)
        temp = np.full(self.num_vertices, absent, dtype=sum_type)
        temp[source_hubs] = source_dists
        target_array = np.asarray(targets, dtype=np.int64)
        sizes = self._sizes[target_array]
        flat, starts = _ragged_gather(self._indptr[target_array], sizes)
        nonempty = np.flatnonzero(sizes)
        if flat.shape[0] == 0:
            return np.full(sizes.shape[0], np.inf, dtype=np.float64)
        contributions = self._dists[flat] + temp[self._hub_ranks[flat]]
        minima = np.minimum.reduceat(contributions, starts[nonempty])
        return _as_distances(minima, nonempty, sizes.shape[0], absent)

    def _hub_major_arrays(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Every label entry regrouped by hub rank, derived on first use.

        ``(hub_indptr, owners, distances)``; a stable sort keeps owners
        ascending within each hub block.  Only the full one-to-many scan
        reads them, so they are a per-kernel cache, never stored.
        """
        if self._hub_major is None:
            perm = np.argsort(self._hub_ranks, kind="stable")
            owners = np.repeat(np.arange(self.num_vertices, dtype=np.int64), self._sizes)
            counts = np.bincount(self._hub_ranks, minlength=self.num_vertices)
            hub_indptr = np.zeros(self.num_vertices + 1, dtype=np.int64)
            np.cumsum(counts, out=hub_indptr[1:])
            self._hub_major = (hub_indptr, owners[perm], self._dists[perm])
        return self._hub_major


def rooted_probe(
    flat_hubs: np.ndarray,
    flat_dists: np.ndarray,
    starts: np.ndarray,
    sizes: np.ndarray,
    temp: np.ndarray,
    max_rank: int,
    sentinel: int,
) -> np.ndarray:
    """Batched rooted evaluator for the dynamic oracle's repair BFSs.

    With the current root's label scattered into ``temp`` (rank-indexed
    ``int64``, ``sentinel`` where absent), evaluates the minimum
    ``temp[hub] + dist`` over each vertex's label entries restricted to hubs
    of rank ``<= max_rank`` (Section 4.5.1); ``flat_hubs`` / ``flat_dists``
    are the concatenated per-vertex entries with ``starts`` / ``sizes``
    segment bounds.  Returns ``int64`` minima aligned with the segments,
    exactly ``sentinel`` where no qualifying common hub exists.
    """
    result = np.full(sizes.shape[0], sentinel, dtype=np.int64)
    if flat_hubs.shape[0] == 0:
        return result
    contributions = flat_dists + temp[flat_hubs]
    # Out-of-rank hubs and missing common hubs both collapse onto the
    # sentinel so the minima read "no qualifying hub" directly.
    contributions = np.minimum(contributions, sentinel)
    contributions[flat_hubs > max_rank] = sentinel
    nonempty = sizes > 0
    result[nonempty] = np.minimum.reduceat(contributions, starts[nonempty])
    return result


def registered_kernels() -> Dict[str, type]:
    """The batch kernel class by name.

    Tools that wrap the kernel's query methods from outside the package (the
    repository benchmark's span tracer) look the class up here.
    """
    return {"batch": BatchQueryKernel}
