"""PHOLD-style event workload without rollback.

Logical processes are dealt in contiguous blocks to workers. Each worker pops
its locally pending event with the lowest virtual timestamp, draws an
exponential increment, targets a uniformly random LP, and ships the successor
through the aggregator; chains die once they pass end_time. Arrivals land in
the pending heap, so a worker keeps processing its backlog while remote
events sit in transit. Each LP remembers the highest timestamp it has
received and counts an arrival below that mark as out-of-order. Nothing is
rolled back; the count itself is the measurement.

Every worker also keeps its arrival log when asked to, so the out-of-order
count can be recomputed from the log as an independent cross-check.

A step draws its increments and targets one event at a time, in pop order,
and ships the turn's successors with one ctx.insert_many call. An insert
draws nothing from the worker's RNG, so the outputs equal those of one
ctx.insert per successor.
"""
from __future__ import annotations

import heapq
import math
from dataclasses import dataclass

import numpy as np

from ..errors import OracleMismatch, UsageError
from ..runtime import WorkerProgram
from ..topology import Topology
from .base import BenchResult, DEFAULT_TIMEOUT_S, launch, positive

_TS_EPS = 1e-9  # keeps chain timestamps strictly increasing
_POPS_PER_TURN = 64  # events consumed per scheduling turn


@dataclass(frozen=True)
class PholdSpec:
    lps_per_worker: int
    initial_events_per_lp: int = 1
    mean_increment: float = 100.0
    end_time: float = 10_000.0
    seed: int = 0

    def __post_init__(self):
        positive("lps_per_worker", self.lps_per_worker)
        positive("initial_events_per_lp", self.initial_events_per_lp)
        if not 0 < self.mean_increment < math.inf:
            raise UsageError("mean_increment must be finite and > 0")
        if not 0 < self.end_time < math.inf:
            raise UsageError("end_time must be finite and > 0")


class _PholdWorker(WorkerProgram):
    def __init__(self, wid, spec, topo, record_log):
        self.wid = wid
        self.spec = spec
        self.lpw = spec.lps_per_worker
        self.total_lps = topo.total_workers * self.lpw
        self.base = wid * self.lpw
        self.max_ts = np.zeros(self.lpw, dtype=np.float64)
        self.pending = []  # (ts, tie, lp) heap of locally runnable events
        self._tie = 0
        self.ooo = 0
        self.consumed = 0
        self.log = [] if record_log else None

    def on_start(self, ctx):
        spec = self.spec
        rng = ctx.rng
        push = heapq.heappush
        for slot in range(self.lpw):
            for _ in range(spec.initial_events_per_lp):
                ts = float(rng.exponential(spec.mean_increment))
                # initial population is local state, not traffic
                push(self.pending, (ts, self._tie, self.base + slot))
                self._tie += 1

    def on_items(self, ctx, items):
        # reads no clock and inserts nothing, so it returns no times
        for it in items:
            lp, ts = it[1]
            slot = lp - self.base
            if ts < self.max_ts[slot]:
                self.ooo += 1
            else:
                self.max_ts[slot] = ts
            if self.log is not None:
                self.log.append((lp, ts))
            heapq.heappush(self.pending, (ts, self._tie, lp))
            self._tie += 1

    def step(self, ctx):
        pending = self.pending
        if not pending:
            return False
        spec = self.spec
        mean = spec.mean_increment
        end_time = spec.end_time
        rng = ctx.rng
        pop = heapq.heappop
        lpw = self.lpw
        total = self.total_lps
        n = min(_POPS_PER_TURN, len(pending))
        dests = []
        events = []
        for _ in range(n):
            ts = pop(pending)[0]
            nts = ts + max(float(rng.exponential(mean)), _TS_EPS)
            if nts <= end_time:
                target = int(rng.integers(0, total))
                dests.append(target // lpw)
                events.append((target, nts))
        self.consumed += n
        ctx.insert_many(dests, events)
        return True


def recount_out_of_order(logs) -> int:
    """Replay arrival logs and recount; independent of the live bookkeeping."""
    total = 0
    for log in logs:
        high = {}
        for lp, ts in log:
            if ts < high.get(lp, 0.0):
                total += 1
            else:
                high[lp] = ts
    return total


class PholdResult(BenchResult):
    benchmark = "phold"

    def __init__(self, metrics, consumed, expected_floor, recheck):
        super().__init__(metrics)
        self.consumed = consumed
        self.expected_floor = expected_floor
        self.recheck = recheck

    def extra(self):
        out = {"events_consumed": self.consumed}
        if self.recheck is not None:
            out["out_of_order_recount"] = self.recheck
        return out

    def verify(self):
        if self.consumed != self.expected_floor + self.metrics.delivered:
            raise OracleMismatch(
                f"consumed {self.consumed} != initial {self.expected_floor} "
                f"+ delivered {self.metrics.delivered}")
        if self.recheck is not None and \
                self.recheck != self.metrics.out_of_order_events:
            raise OracleMismatch(
                f"out-of-order recount {self.recheck} != live count "
                f"{self.metrics.out_of_order_events}")
        return self


def run_phold(spec: PholdSpec, *, scheme, g, topo, mode="sequential",
              cfg=None, item_bytes=16, seed=None,
              timeout_s=DEFAULT_TIMEOUT_S, flush_timeout_ns=None,
              record_log=False, trace=False) -> PholdResult:
    run_seed = spec.seed if seed is None else seed
    handle, _ = launch(
        topo=topo, scheme=scheme, g=g, item_bytes=item_bytes,
        program=lambda wid: _PholdWorker(wid, spec, topo, record_log),
        mode=mode, seed=run_seed, cfg=cfg, trace=trace,
        flush_timeout_ns=flush_timeout_ns)
    metrics = handle.await_quiescence(timeout_s=timeout_s)

    drivers = [wk.driver for wk in handle.workers]
    metrics.out_of_order_events = sum(d.ooo for d in drivers)
    recheck = None
    if record_log:
        recheck = recount_out_of_order([d.log for d in drivers])
    floor = topo.total_workers * spec.lps_per_worker \
        * spec.initial_events_per_lp
    result = PholdResult(metrics, sum(d.consumed for d in drivers), floor,
                         recheck)
    if trace:
        result.trace = handle.trace
    result.verify()
    return result
