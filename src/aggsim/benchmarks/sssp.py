"""Single-source shortest paths over the aggregation fabric.

Vertices are block-partitioned one contiguous range per worker. A distance
update (v, d) travels to v's owner; if it improves the stored distance the
owner relaxes v's out-edges, otherwise it counts as a wasted update. Updates
whose tentative distance falls beyond the current threshold window are held
in a per-worker list and released when the window advances by
threshold_delta, so cheap paths propagate before expensive ones
(delta-stepping-style phases). Distances are checked against a reference
Dijkstra run; wasted updates are schedule-dependent and only compared as
trends.

A relaxation reads its edge slice with tolist(), appends each update at or
beyond the threshold to two int64 columns (array "q"), its distance and
its vertex, in edge order, and inserts the rest with one ctx.insert_many
call. A release takes one stable argsort of the distance column, cuts the
sorted columns below the new threshold with searchsorted and inserts that
prefix the same way; the rest is kept, sorted, as new columns. Within one
distance the columns are in defer order: every entry kept from the last
release was deferred before every entry appended since, and the kept
entries are sorted. So the stable sort on distance alone inserts in
(distance, defer order), the order in which a min-heap of (distance, tie)
would pop them. Deferring reads neither the clock nor a sequence number,
so every output equals that of one ctx.insert per update in edge order.
Distances are a list per worker, cheaper to index than numpy, made an
array once. SSSPSpec refuses a graph whose largest weight times n reaches
INF: a stored distance is the length of a simple path, so below that
bound every tentative distance fits in int64 and stays below the
unreachable sentinel.
"""
from __future__ import annotations

from array import array
from dataclasses import dataclass
from itertools import chain

import numpy as np

from ..errors import OracleMismatch, UsageError
from ..runtime import WorkerProgram
from ..topology import Topology
from .base import (BenchResult, DEFAULT_TIMEOUT_S, int64_digest, launch,
                   positive)
from .graphs import Graph, INF, dijkstra

_MAX_PHASES = 1_000_000  # defense against a zero-progress window bug


@dataclass(frozen=True)
class SSSPSpec:
    graph: Graph
    source: int = 0
    threshold_delta: int = 100
    seed: int = 0

    def __post_init__(self):
        positive("threshold_delta", self.threshold_delta)
        if not 0 <= self.source < self.graph.n:
            raise UsageError("source vertex out of range")
        w = self.graph.weights
        if w.size and int(w.max()) * self.graph.n >= INF:
            raise UsageError(
                "largest edge weight times the vertex count must stay below "
                f"INF ({INF}), or a distance could reach the sentinel")

    def validate(self, topo: Topology) -> None:
        if self.graph.n < topo.total_workers:
            raise UsageError("need at least one vertex per worker")


def _block(n, w, wid):
    # ceil-sized blocks; trailing workers may own a short or empty block
    size = (n + w - 1) // w
    lo = min(n, wid * size)
    return lo, min(n, lo + size)


class _SSSPWorker(WorkerProgram):
    def __init__(self, wid, spec, topo):
        self.wid = wid
        self.w = topo.total_workers
        self.spec = spec
        g = spec.graph
        self.block_size = (g.n + self.w - 1) // self.w
        self.lo, self.hi = _block(g.n, self.w, wid)
        self.dist = [INF] * (self.hi - self.lo)
        self.threshold = spec.threshold_delta
        # deferred updates, in defer order
        self.deferred_dist = array("q")
        self.deferred_vertex = array("q")
        self.wasted = 0

    def on_start(self, ctx):
        src = self.spec.source
        if self.lo <= src < self.hi:
            self.dist[src - self.lo] = 0
            self._relax(ctx, src, 0)

    def _relax(self, ctx, v, d):
        # below the threshold: one insert_many chunk; the rest: deferred
        g = self.spec.graph
        lo, hi = g.indptr[v], g.indptr[v + 1]
        threshold = self.threshold
        size = self.block_size
        dests = []
        updates = []
        defer_dist = self.deferred_dist.append
        defer_vertex = self.deferred_vertex.append
        for u, wt in zip(g.heads[lo:hi].tolist(), g.weights[lo:hi].tolist()):
            du = d + wt
            if du < threshold:
                dests.append(u // size)
                updates.append((u, du))
            else:
                defer_dist(du)
                defer_vertex(u)
        ctx.insert_many(dests, updates)

    def on_item(self, ctx, item):
        v, d = item[1]
        slot = v - self.lo
        if d < self.dist[slot]:
            self.dist[slot] = d
            self._relax(ctx, v, d)
        else:
            self.wasted += 1

    def pending(self):
        """How many updates are deferred and not yet released."""
        return len(self.deferred_dist)

    # called between phases via broadcast_task
    def release(self, ctx, new_threshold):
        """Insert the deferred updates below new_threshold; returns how many
        were deferred before it, so 0 everywhere ends the run."""
        self.threshold = new_threshold
        found = len(self.deferred_dist)
        dists = np.frombuffer(self.deferred_dist, dtype=np.int64)
        # stable: within one distance, defer order (see the module docstring)
        order = dists.argsort(kind="stable")
        dists = dists[order]
        vertices = np.frombuffer(self.deferred_vertex, dtype=np.int64)[order]
        cut = int(dists.searchsorted(new_threshold))
        head = vertices[:cut]
        ctx.insert_many((head // self.block_size).tolist(),
                        list(zip(head.tolist(), dists[:cut].tolist())))
        self.deferred_dist = array("q", dists[cut:].tobytes())
        self.deferred_vertex = array("q", vertices[cut:].tobytes())
        return found


class SSSPResult(BenchResult):
    benchmark = "sssp"

    def __init__(self, metrics, distances, expected, phases):
        super().__init__(metrics)
        self.distances = distances
        self.expected = expected
        self.phases = phases

    def extra(self):
        reachable = int((self.distances != INF).sum())
        return {
            "vertices": int(self.distances.size),
            "reachable": reachable,
            "phases": self.phases,
            # unreachable as -1 so the sentinel value is not baked in
            "distance_digest": int64_digest(
                np.where(self.distances == INF, -1, self.distances)),
            "oracle_ok": bool(np.array_equal(self.distances, self.expected)),
        }

    def verify(self):
        if not np.array_equal(self.distances, self.expected):
            bad = int(np.flatnonzero(self.distances != self.expected)[0])
            raise OracleMismatch(
                f"sssp distance[{bad}] = {int(self.distances[bad])}, "
                f"oracle {int(self.expected[bad])}")
        return self


def run_sssp(spec: SSSPSpec, *, scheme, g, topo, mode="sequential", cfg=None,
             item_bytes=24, seed=None, timeout_s=DEFAULT_TIMEOUT_S,
             flush_timeout_ns=None, trace=False) -> SSSPResult:
    spec.validate(topo)
    run_seed = spec.seed if seed is None else seed
    handle, _ = launch(
        topo=topo, scheme=scheme, g=g, item_bytes=item_bytes,
        program=lambda wid: _SSSPWorker(wid, spec, topo),
        mode=mode, seed=run_seed, cfg=cfg, trace=trace,
        flush_timeout_ns=flush_timeout_ns, timeout_s=timeout_s)

    threshold = spec.threshold_delta
    phases = 0
    while True:
        handle.run_phase(timeout_s=timeout_s)
        phases += 1
        if phases > _MAX_PHASES:
            raise OracleMismatch("threshold window made no progress")
        # quiescent here, so the deferred columns are the complete remaining
        # work; a release of empty columns inserts nothing
        threshold += spec.threshold_delta
        if not any(handle.broadcast_task(
                lambda ctx, thr=threshold: ctx.driver.release(ctx, thr))):
            break
    metrics = handle.await_quiescence(timeout_s=timeout_s)

    drivers = [wk.driver for wk in handle.workers]
    dist = np.fromiter(chain.from_iterable(d.dist for d in drivers),
                       dtype=np.int64, count=spec.graph.n)
    metrics.wasted_updates = sum(d.wasted for d in drivers)
    expected = dijkstra(spec.graph, spec.source)
    result = SSSPResult(metrics, dist, expected, phases)
    if trace:
        result.trace = handle.trace
    result.verify()
    return result
