"""Low-level query kernels for 2-hop labels.

The query kernels, mirroring Section 4.5 of the paper:

* :func:`merge_join_query` — the textbook two-pointer merge join over two
  sorted label arrays, ``O(|L(s)| + |L(t)|)`` time.  This is the reference
  implementation used by tests.
* :func:`intersect_query` — the vectorised merge behind
  :meth:`~repro.core.labels.LabelSet.query` (defined beside it in
  :mod:`repro.core.labels`): one ``searchsorted`` of one label's hubs into
  the other's, asymptotically a log factor worse but far faster in practice
  under the Python interpreter.
* :class:`RootedQueryEvaluator` — the "targeted" evaluator behind the prune
  test of every unweighted builder: the undirected, path and directed
  indexes all run :func:`~repro.core.pruned.pruned_bfs` with one attached.
  It materialises the current root's label into a temporary distance array
  ``T`` indexed by hub rank, so each prune test costs ``O(|L(u)|)`` instead
  of ``O(|L(root)| + |L(u)|)`` — the optimisation the paper credits with a
  ~2x preprocessing speed-up.  The root's label may come from another
  accumulator than the one tested: the directed build attaches
  ``L_OUT(root)`` and tests ``L_IN(u)``.
* :class:`BatchQueryKernel` — the serving-path kernel, defined in
  :mod:`repro.core.kernels` and re-exported here: it answers *many*
  independent ``(s, t)`` pairs per call with flat numpy operations instead of
  one interpreted merge join per pair.  This is what makes the batched query
  engine in :mod:`repro.serving` worthwhile under the Python interpreter.
"""

from __future__ import annotations

from typing import List, Sequence

from repro.core.kernels import FIELD_KERNEL_KEYS, BatchQueryKernel
from repro.core.labels import INF_DISTANCE, LabelAccumulator, intersect_query

__all__ = [
    "merge_join_query",
    "intersect_query",
    "RootedQueryEvaluator",
    "BatchQueryKernel",
    "FIELD_KERNEL_KEYS",
]


def merge_join_query(
    s_hubs: Sequence[int],
    s_dists: Sequence[int],
    t_hubs: Sequence[int],
    t_dists: Sequence[int],
) -> float:
    """Two-pointer merge join over two rank-sorted labels.

    Returns the minimum ``d(s, w) + d(w, t)`` over common hubs ``w``, or
    ``inf`` when the labels are disjoint.
    """
    best = float("inf")
    i, j = 0, 0
    len_s, len_t = len(s_hubs), len(t_hubs)
    while i < len_s and j < len_t:
        hub_s, hub_t = s_hubs[i], t_hubs[j]
        if hub_s == hub_t:
            candidate = s_dists[i] + t_dists[j]
            if candidate < best:
                best = candidate
            i += 1
            j += 1
        elif hub_s < hub_t:
            i += 1
        else:
            j += 1
    return best


class RootedQueryEvaluator:
    """Prune-test evaluator specialised to one BFS root (paper Section 4.5.1).

    The evaluator keeps an array ``T`` of length ``max_rank`` where ``T[r]`` is
    the distance from the current root to the hub of rank ``r`` (or
    :data:`~repro.core.labels.INF_DISTANCE` when the root's label has no such
    hub).  ``T`` is populated from the root's current label when the root is
    :meth:`attach`-ed and cleared entry-by-entry on :meth:`detach`, so the cost
    of (re)initialisation is proportional to the root's label size rather than
    to ``n`` — the "avoid O(n) initialisation" point of Section 4.5.1.
    """

    __slots__ = ("_temp", "_touched")

    def __init__(self, max_rank: int) -> None:
        # A plain Python list is noticeably faster than a numpy array here:
        # the prune test indexes it once per label entry from interpreted code,
        # so avoiding numpy scalar boxing shaves ~30% off preprocessing time.
        self._temp: List[int] = [int(INF_DISTANCE)] * (max_rank + 1)
        self._touched: List[int] = []

    def attach(self, labels: LabelAccumulator, root: int) -> None:
        """Load the root's current label into the temporary array."""
        if self._touched:
            raise RuntimeError("attach called while another root is attached")
        for hub_rank, distance in labels.entries(root):
            self._temp[hub_rank] = distance
            self._touched.append(hub_rank)

    def detach(self) -> None:
        """Clear only the entries written by the last :meth:`attach`."""
        infinity = int(INF_DISTANCE)
        for hub_rank in self._touched:
            self._temp[hub_rank] = infinity
        self._touched.clear()

    def query_upper_bound(self, labels: LabelAccumulator, vertex: int) -> int:
        """Minimum ``d(root, w) + d(w, vertex)`` over hubs ``w`` in ``vertex``'s label.

        Runs in ``O(|L(vertex)|)``; returns a value of at least
        :data:`~repro.core.labels.INF_DISTANCE` when no common hub exists.
        """
        temp = self._temp
        best = int(INF_DISTANCE)
        hubs = labels.hub_ranks(vertex)
        dists = labels.distances(vertex)
        for i in range(len(hubs)):
            candidate = dists[i] + temp[hubs[i]]
            if candidate < best:
                best = candidate
        return best

    def query_upper_bound_with_cutoff(
        self, labels: LabelAccumulator, vertex: int, cutoff: int
    ) -> bool:
        """Whether some hub in ``vertex``'s label yields a distance ``<= cutoff``.

        This is the prune test proper: it early-exits on the first witness, so
        in the common "prune immediately via the top hub" case it inspects a
        single entry.
        """
        temp = self._temp
        hubs = labels.hub_ranks(vertex)
        dists = labels.distances(vertex)
        for i in range(len(hubs)):
            if dists[i] + temp[hubs[i]] <= cutoff:
                return True
        return False
