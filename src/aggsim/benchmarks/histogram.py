"""Distributed histogram workload.

Every worker inserts updates_per_worker increments to uniformly random bins;
bins are dealt to workers cyclically (bin b lives on worker b mod w). The
oracle is a direct bincount over every worker's pre-drawn bin stream, so the
final table must match it exactly for any scheme, mode, or buffer size.

The updates travel as int64 columns: each step inserts a slice of the
pre-drawn array with ctx.insert_columns, as a column chunk (a Batch of the
columns dest, payload, created_at and seq), and the sink adds one bincount
per delivered Batch group. Groups that reach it as lists of Items
(same-process updates, the threaded engine) are counted one by one.
"""
from __future__ import annotations

from array import array
from dataclasses import dataclass

import numpy as np

from ..errors import OracleMismatch, UsageError
from ..runtime import WorkerProgram
from ..topology import Batch, Topology
from .base import (BenchResult, DEFAULT_TIMEOUT_S, int64_digest, launch,
                   positive)

_CHUNK = 256  # updates per insert_columns call


@dataclass(frozen=True)
class HistogramSpec:
    updates_per_worker: int
    table_size: int
    seed: int = 0

    def __post_init__(self):
        positive("updates_per_worker", self.updates_per_worker)
        positive("table_size", self.table_size)

    def validate(self, topo: Topology) -> None:
        if self.table_size < topo.total_workers:
            raise UsageError("table_size must be >= total workers")


class _HistWorker(WorkerProgram):
    def __init__(self, wid, spec, topo, chunk):
        self.wid = wid
        self.w = topo.total_workers
        self.chunk = chunk
        self.spec = spec
        self.pos = 0
        self.bins = None
        self.counts = None
        self._table = None

    def on_start(self, ctx):
        spec = self.spec
        # pre-draw the whole stream as one int64 array
        self.bins = ctx.rng.integers(0, spec.table_size,
                                     size=spec.updates_per_worker)
        n_owned = (spec.table_size - self.wid + self.w - 1) // self.w
        # an int64 buffer that Items index one slot at a time, and that
        # _table, numpy's view of it, adds whole Batch groups into
        self.counts = array("q", bytes(8 * n_owned))
        self._table = np.frombuffer(self.counts, dtype=np.int64)

    def step(self, ctx):
        pos = self.pos
        end = min(pos + self.chunk, len(self.bins))
        if pos >= end:
            return False
        chunk = self.bins[pos:end]
        ctx.insert_columns(chunk % self.w, chunk)
        self.pos = end
        return True

    def on_items(self, ctx, items):
        # cyclic deal: bin b maps to local slot (b - wid) / w, which is
        # b // w for every bin b this worker owns
        w = self.w
        if type(items) is Batch:
            slots = np.bincount(items.payload // w)
            self._table[:slots.size] += slots
            return
        counts = self.counts
        wid = self.wid
        for it in items:
            counts[(it[1] - wid) // w] += 1


class HistogramResult(BenchResult):
    benchmark = "histogram"

    def __init__(self, metrics, table, expected):
        super().__init__(metrics)
        self.table = table
        self.expected = expected

    def extra(self):
        return {
            "table_size": int(self.table.size),
            "table_total": int(self.table.sum()),
            "table_digest": int64_digest(self.table),
            "oracle_ok": bool(np.array_equal(self.table, self.expected)),
        }

    def verify(self):
        if not np.array_equal(self.table, self.expected):
            bad = int(np.flatnonzero(self.table != self.expected)[0])
            raise OracleMismatch(
                f"histogram bin {bad}: got {int(self.table[bad])}, "
                f"expected {int(self.expected[bad])}")
        return self


def run_histogram(spec: HistogramSpec, *, scheme, g, topo, mode="sequential",
                  cfg=None, item_bytes=16, seed=None,
                  timeout_s=DEFAULT_TIMEOUT_S, flush_timeout_ns=None,
                  trace=False) -> HistogramResult:
    spec.validate(topo)
    run_seed = spec.seed if seed is None else seed
    handle, _ = launch(
        topo=topo, scheme=scheme, g=g, item_bytes=item_bytes,
        program=lambda wid: _HistWorker(wid, spec, topo, _CHUNK),
        mode=mode, seed=run_seed, cfg=cfg, trace=trace,
        flush_timeout_ns=flush_timeout_ns, timeout_s=timeout_s)
    metrics = handle.await_quiescence(timeout_s=timeout_s)

    w = topo.total_workers
    drivers = [wk.driver for wk in handle.workers]
    table = np.zeros(spec.table_size, dtype=np.int64)
    for d in drivers:
        table[d.wid::w] = d.counts
    expected = np.zeros(spec.table_size, dtype=np.int64)
    for d in drivers:
        expected += np.bincount(np.asarray(d.bins, dtype=np.int64),
                                minlength=spec.table_size)
    result = HistogramResult(metrics, table, expected)
    if trace:
        result.trace = handle.trace
    result.verify()
    if metrics.produced != w * spec.updates_per_worker:
        raise OracleMismatch(
            f"produced {metrics.produced} != "
            f"{w * spec.updates_per_worker} expected updates")
    return result
