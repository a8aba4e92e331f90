"""Seeded inputs and BFS ground truth, independent of the program under test.

The generator and the BFS here use only the standard library and numpy, so a
change to the program's own generators or traversal code can neither change
the benchmark's inputs nor its notion of a correct answer.
"""

from __future__ import annotations

import random
from typing import List, Sequence, Tuple

import numpy as np


def holme_kim_edges(n: int, m: int, triad: float, seed: int) -> List[Tuple[int, int]]:
    """Edges of a Holme–Kim graph: preferential attachment plus triad closure.

    Every vertex after the seed star attaches to ``m`` earlier vertices, so
    the graph is connected and every distance is finite.
    """
    rng = random.Random(seed)
    neighbours: List[set] = [set() for _ in range(n)]
    endpoints: List[int] = []
    edges: List[Tuple[int, int]] = []

    def add(u: int, v: int) -> None:
        edges.append((u, v))
        neighbours[u].add(v)
        neighbours[v].add(u)
        endpoints.append(u)
        endpoints.append(v)

    for v in range(1, m + 1):
        add(0, v)
    for new in range(m + 1, n):
        previous = -1
        attached = 0
        while attached < m:
            if previous >= 0 and rng.random() < triad:
                target = rng.choice(tuple(neighbours[previous]))
            else:
                target = endpoints[rng.randrange(len(endpoints))]
            if target == new or target in neighbours[new]:
                previous = -1
                continue
            add(new, target)
            previous = target
            attached += 1
    return edges


def write_edge_list(path: str, edges: Sequence[Tuple[int, int]]) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        handle.write("".join(f"{u} {v}\n" for u, v in edges))


class Csr:
    """Undirected adjacency in compressed sparse row form."""

    def __init__(self, n: int, edges: Sequence[Tuple[int, int]]) -> None:
        pairs = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
        heads = np.concatenate([pairs[:, 0], pairs[:, 1]])
        tails = np.concatenate([pairs[:, 1], pairs[:, 0]])
        order = np.argsort(heads, kind="stable")
        self.n = n
        self.adj = tails[order]
        self.indptr = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(np.bincount(heads, minlength=n), out=self.indptr[1:])

    def bfs(self, source: int) -> np.ndarray:
        """Hop distances from ``source`` (-1 where unreachable)."""
        dist = np.full(self.n, -1, dtype=np.int64)
        dist[source] = 0
        frontier = np.array([source], dtype=np.int64)
        depth = 0
        while frontier.size:
            starts = self.indptr[frontier]
            counts = self.indptr[frontier + 1] - starts
            total = int(counts.sum())
            if total == 0:
                break
            offsets = np.repeat(starts - np.cumsum(counts) + counts, counts)
            reached = self.adj[offsets + np.arange(total)]
            fresh = np.unique(reached[dist[reached] < 0])
            depth += 1
            dist[fresh] = depth
            frontier = fresh
        return dist
