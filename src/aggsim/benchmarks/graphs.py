"""Graph inputs for the shortest-path workload.

Graphs are directed, weighted, and stored in CSR form (indptr, heads,
weights). The generator draws a fixed out-degree per vertex with no
self-loops and integer weights uniform in [1, max_weight]; parallel edges
are possible and harmless for shortest paths. A plain-text edge-list loader
("u v w" per line, '#' comments) covers external inputs.
"""
from __future__ import annotations

import heapq

import numpy as np

from ..errors import UsageError

INF = np.iinfo(np.int64).max


class Graph:
    """Immutable CSR adjacency. Vertex ids are 0..n-1."""

    __slots__ = ("n", "indptr", "heads", "weights")

    def __init__(self, n, indptr, heads, weights):
        self.n = int(n)
        self.indptr = np.asarray(indptr, dtype=np.int64)
        self.heads = np.asarray(heads, dtype=np.int64)
        self.weights = np.asarray(weights, dtype=np.int64)
        if self.indptr.shape != (self.n + 1,):
            raise UsageError("indptr must have n+1 entries")
        if self.heads.shape != self.weights.shape:
            raise UsageError("heads and weights must align")
        if self.n and (self.heads.min() < 0 or self.heads.max() >= self.n):
            raise UsageError("edge head out of range")
        if self.weights.size and self.weights.min() < 0:
            raise UsageError("negative edge weight")

    @property
    def m(self) -> int:
        return int(self.heads.size)


def random_graph(n: int, out_degree: int, seed: int,
                 max_weight: int = 100) -> Graph:
    """Fixed out-degree digraph, no self-loops, weights in [1, max_weight]."""
    if n < 2:
        raise UsageError("need at least 2 vertices")
    if out_degree < 1 or out_degree >= n:
        raise UsageError("out_degree must be in [1, n)")
    rng = np.random.default_rng(
        np.random.SeedSequence(entropy=seed, spawn_key=(3,)))
    heads = rng.integers(0, n - 1, size=n * out_degree, dtype=np.int64)
    tails = np.repeat(np.arange(n, dtype=np.int64), out_degree)
    heads[heads >= tails] += 1  # skip the tail itself: uniform over n-1 others
    weights = rng.integers(1, max_weight + 1, size=n * out_degree,
                           dtype=np.int64)
    indptr = np.arange(0, (n + 1) * out_degree, out_degree, dtype=np.int64)
    return Graph(n, indptr, heads, weights)


def load_edge_list(path: str, n: int = None) -> Graph:
    """Parse "u v w" lines into a Graph; n defaults to 1 + max vertex id."""
    tails, heads, weights = [], [], []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, 1):
            s = line.strip()
            if not s or s.startswith("#"):
                continue
            parts = s.split()
            if len(parts) != 3:
                raise UsageError(f"{path}:{lineno}: expected 'u v w'")
            try:
                u, v, w = int(parts[0]), int(parts[1]), int(parts[2])
            except ValueError as exc:
                raise UsageError(f"{path}:{lineno}: non-integer field") from exc
            tails.append(u)
            heads.append(v)
            weights.append(w)
    if not tails:
        raise UsageError(f"{path}: no edges")
    ta = np.asarray(tails, dtype=np.int64)
    ha = np.asarray(heads, dtype=np.int64)
    wa = np.asarray(weights, dtype=np.int64)
    if n is None:
        n = int(max(ta.max(), ha.max())) + 1
    order = np.argsort(ta, kind="stable")
    ta, ha, wa = ta[order], ha[order], wa[order]
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.add.at(indptr, ta + 1, 1)
    np.cumsum(indptr, out=indptr)
    return Graph(n, indptr, ha, wa)


def dijkstra(graph: Graph, source: int) -> np.ndarray:
    """Reference distances (int64, INF for unreachable)."""
    if not 0 <= source < graph.n:
        raise UsageError(f"source {source} out of range")
    # Python lists: numpy indexes each edge's scalars far slower
    dist = [INF] * graph.n
    dist[source] = 0
    indptr = graph.indptr.tolist()
    heads = graph.heads.tolist()
    weights = graph.weights.tolist()
    heap = [(0, source)]
    while heap:
        d, u = heapq.heappop(heap)
        if d > dist[u]:
            continue
        for i in range(indptr[u], indptr[u + 1]):
            v = heads[i]
            nd = d + weights[i]
            if nd < dist[v]:
                dist[v] = nd
                heapq.heappush(heap, (nd, v))
    return np.array(dist, dtype=np.int64)
