"""Atomic index snapshots: lock-free reads, hot-swapped updates.

A serving index must answer queries continuously while the graph underneath
it changes (edge insertions and deletions from :mod:`repro.core.dynamic`) or
while a newer index is loaded from disk.  Rather than guarding the read path with locks —
which would put a mutex acquisition in front of every microsecond-scale query
— the serving layer uses *snapshot publication*:

* Readers call :attr:`SnapshotManager.current` once per request/batch.  That
  is a single attribute read (atomic under the CPython memory model), so the
  read path is completely lock free, and a reader holding a snapshot keeps a
  consistent index view for as long as it likes — in-flight batches are never
  affected by a concurrent swap.
* Writers apply edge insertions and deletions to a private *shadow*
  :class:`~repro.core.dynamic.DynamicPrunedLandmarkLabeling` under a write
  lock, then :meth:`~SnapshotManager.publish` an immutable frozen copy —
  by default a *diff* freeze that patches only the changed per-vertex labels
  into the previous snapshot's label set.  Publication replaces the current
  snapshot in one reference assignment; old snapshots are reclaimed by the
  garbage collector once the last reader drops them.

This is the classic read-copy-update shape used by production search/vector
stores for index segment swaps, applied to the 2-hop-label index.
"""

from __future__ import annotations

import os
import threading
import time
from dataclasses import dataclass, field
from typing import Callable, Iterable, Optional, Tuple, Union

from repro.core.dynamic import DynamicPrunedLandmarkLabeling
from repro.core.index import PrunedLandmarkLabeling
from repro.core.serialization import load_index
from repro.errors import ServingError
from repro.graph.csr import Graph
from repro.serving.engine import BatchQueryEngine

__all__ = ["IndexSnapshot", "SnapshotManager"]


@dataclass(frozen=True)
class IndexSnapshot:
    """One immutable published index version.

    Snapshots are value objects: everything reachable from one (the engine,
    its index, the label arrays) is frozen, so a reader may use it without
    coordination for any length of time.
    """

    engine: BatchQueryEngine
    version: int
    published_at: float = field(default_factory=time.time)
    #: Human-readable provenance ("initial build", "update batch", file path, ...).
    source: str = ""

    @property
    def index(self) -> PrunedLandmarkLabeling:
        """The snapshot's underlying index."""
        return self.engine.index


class SnapshotManager:
    """Publishes immutable index snapshots and applies updates to a shadow copy.

    Construct with :meth:`from_graph` (writable: supports edge insertions) or
    :meth:`from_index` (read-only publication, e.g. for disk reloads).

    Examples
    --------
    >>> from repro.graph import Graph
    >>> from repro.serving import SnapshotManager
    >>> manager = SnapshotManager.from_graph(Graph(4, [(0, 1), (2, 3)]))
    >>> manager.current.engine.query(0, 3)
    inf
    >>> manager.insert_edge(1, 2)
    >>> _ = manager.publish()
    >>> manager.current.engine.query(0, 3)
    3.0
    """

    def __init__(
        self,
        initial: PrunedLandmarkLabeling,
        *,
        shadow: Optional[DynamicPrunedLandmarkLabeling] = None,
        shadow_factory: Optional[Callable[[], DynamicPrunedLandmarkLabeling]] = None,
        source: str = "initial build",
    ) -> None:
        # Reentrant: _require_shadow may build the shadow lazily while the
        # caller (insert_edge/publish) already holds the lock.
        self._write_lock = threading.RLock()
        self._shadow = shadow
        self._shadow_factory = shadow_factory
        self._pending_updates = 0
        self._current = IndexSnapshot(
            engine=BatchQueryEngine(initial), version=1, source=source
        )

    # ------------------------------------------------------------------ #
    # Constructors
    # ------------------------------------------------------------------ #

    @classmethod
    def from_graph(
        cls,
        graph: Graph,
        *,
        ordering: str = "degree",
        seed: int = 0,
    ) -> "SnapshotManager":
        """Build a writable manager: shadow dynamic index plus initial snapshot."""
        shadow = DynamicPrunedLandmarkLabeling(ordering=ordering, seed=seed).build(
            graph
        )
        return cls(shadow.freeze(), shadow=shadow)

    @classmethod
    def from_index(cls, index: PrunedLandmarkLabeling) -> "SnapshotManager":
        """Wrap an already-built index.

        The manager is writable when the index still carries its graph (a
        shadow dynamic index is derived from it — lazily, on the first
        :meth:`insert_edge`, because building it re-runs the pruned-BFS
        construction); an index loaded from disk has no graph, so such a
        manager only serves and :meth:`reload`\\ s.
        """
        graph = index.graph if index.built else None
        if graph is not None and not graph.directed:
            ordering = index.ordering if isinstance(index.ordering, str) else "degree"
            seed = index.seed

            def build_shadow() -> DynamicPrunedLandmarkLabeling:
                return DynamicPrunedLandmarkLabeling(
                    ordering=ordering, seed=seed
                ).build(graph)

            return cls(index, shadow_factory=build_shadow)
        return cls(index, shadow=None)

    # ------------------------------------------------------------------ #
    # Read path (lock free)
    # ------------------------------------------------------------------ #

    @property
    def current(self) -> IndexSnapshot:
        """The currently published snapshot (a single atomic attribute read)."""
        # Writers swap the snapshot under the write lock; readers never take
        # it: the swap is one reference assignment (read-copy-update).
        return self._current  # reprolint: disable=RL001 -- lock-free RCU read

    @property
    def version(self) -> int:
        """Version number of the current snapshot."""
        return self.current.version

    def query(self, s: int, t: int) -> float:
        """Convenience scalar query against the current snapshot."""
        return self.current.engine.query(s, t)

    # ------------------------------------------------------------------ #
    # Write path
    # ------------------------------------------------------------------ #

    @property
    def writable(self) -> bool:
        """Whether the manager has (or can build) a shadow accepting insertions."""
        with self._write_lock:
            return self._shadow is not None or self._shadow_factory is not None

    @property
    def pending_updates(self) -> int:
        """Edge insertions applied to the shadow but not yet published."""
        with self._write_lock:
            return self._pending_updates

    @property
    def dirty_vertex_count(self) -> int:
        """Shadow vertices whose labels changed since the last publish.

        Zero for read-only managers (no shadow) and for lazily-built shadows
        that have not been materialised yet — the observability surface must
        never trigger the expensive shadow construction.
        """
        with self._write_lock:
            shadow = self._shadow
        if shadow is None:
            return 0
        return len(shadow.dirty_vertices)

    def _require_shadow(self) -> DynamicPrunedLandmarkLabeling:
        with self._write_lock:
            if self._shadow is None and self._shadow_factory is not None:
                self._shadow = self._shadow_factory()
                self._shadow_factory = None
            if self._shadow is None:
                raise ServingError(
                    "this snapshot manager has no writable shadow index (it was "
                    "created from a graph-less index, e.g. one loaded from disk)"
                )
            return self._shadow

    def insert_edge(self, a: int, b: int) -> None:
        """Apply one edge insertion to the shadow index (not yet visible to readers)."""
        shadow = self._require_shadow()
        with self._write_lock:
            shadow.insert_edge(a, b)
            self._pending_updates += 1

    def insert_edges(self, edges: Iterable[Tuple[int, int]]) -> None:
        """Apply a stream of edge insertions to the shadow index."""
        shadow = self._require_shadow()
        with self._write_lock:
            for a, b in edges:
                shadow.insert_edge(int(a), int(b))
                self._pending_updates += 1

    def remove_edge(self, a: int, b: int) -> None:
        """Apply one edge deletion to the shadow index (not yet visible to readers)."""
        shadow = self._require_shadow()
        with self._write_lock:
            shadow.remove_edge(a, b)
            self._pending_updates += 1

    def remove_edges(self, edges: Iterable[Tuple[int, int]]) -> None:
        """Apply a stream of edge deletions to the shadow index."""
        shadow = self._require_shadow()
        with self._write_lock:
            for a, b in edges:
                shadow.remove_edge(int(a), int(b))
                self._pending_updates += 1

    def publish(self, *, diff: bool = True) -> IndexSnapshot:
        """Freeze the shadow index and atomically swap it in for readers.

        In-flight readers holding the previous snapshot are unaffected; new
        ``current`` reads observe the new version immediately.  With ``diff``
        (the default) the freeze patches only the labels of vertices dirtied
        since the last freeze into the previous frozen label set, so publish
        cost scales with the size of the change, not the index.
        """
        shadow = self._require_shadow()
        with self._write_lock:
            patched = len(shadow.dirty_vertices)
            frozen = shadow.freeze(diff=diff)
            applied = self._pending_updates
            self._pending_updates = 0
            snapshot = IndexSnapshot(
                engine=BatchQueryEngine(frozen),
                version=self._current.version + 1,
                source=(
                    f"publish ({applied} pending updates applied, "
                    f"{patched} vertex labels patched)"
                ),
            )
            self._current = snapshot
        return snapshot

    def reload(self, path: Union[str, os.PathLike]) -> IndexSnapshot:
        """Load a saved index from disk and publish it as the next snapshot.

        The on-disk archive carries no graph, so the shadow index (if any) is
        left untouched: ``reload`` is the "swap in a freshly rebuilt index"
        operation, while :meth:`insert_edge` + :meth:`publish` is the
        incremental-update operation.
        """
        index = load_index(path)
        with self._write_lock:
            snapshot = IndexSnapshot(
                engine=BatchQueryEngine(index),
                version=self._current.version + 1,
                source=str(path),
            )
            self._current = snapshot
        return snapshot
