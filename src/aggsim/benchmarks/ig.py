"""Index-gather workload: request/response round trips through the buffers.

Each worker looks up requests_per_worker random slots of a table dealt
cyclically across workers. A request travels to the slot's owner, the owner
answers with the slot value, and the round trip is timed on the requester's
own clock, so no cross-worker clock comparison is involved. Slot values are
a fixed hash of the index, which gives every worker a free oracle for the
responses it receives.

A worker issues each chunk of requests with one insert_many and stamps
request i of the chunk with the chunk's start time plus i*work_ns. On the
virtual clock that is exactly the time the request's insert begins. The
sink answers a group's requests with one stamped chunk. In threaded mode
the inserts carry their own wall stamps, so a request's send stamp is that
estimate, not the wall time its insert began.
"""
from __future__ import annotations

from array import array
from dataclasses import dataclass
from itertools import count

from ..errors import OracleMismatch, UsageError
from ..metrics import summarize
from ..runtime import WorkerProgram
from ..topology import Topology
from .base import BenchResult, DEFAULT_TIMEOUT_S, launch, positive

_REQ = 0
_RESP = 1
_CHUNK = 64  # requests per insert_many call


def table_value(index: int) -> int:
    """Deterministic slot content; any worker can recompute it."""
    return (index * 2654435761) & 0x7FFFFFFF


@dataclass(frozen=True)
class IGSpec:
    requests_per_worker: int
    table_size: int
    seed: int = 0
    self_only: bool = False  # restrict lookups to self-owned slots

    def __post_init__(self):
        positive("requests_per_worker", self.requests_per_worker)
        positive("table_size", self.table_size)

    def validate(self, topo: Topology) -> None:
        if self.table_size < topo.total_workers:
            raise UsageError("table_size must be >= total workers")


class _IGWorker(WorkerProgram):
    def __init__(self, wid, spec, topo, chunk):
        self.wid = wid
        self.w = topo.total_workers
        self.spec = spec
        self.chunk = chunk
        self.issued = 0
        self.indices = None
        self.send_ts = {}
        self.rtts = array("q")
        self.bad_values = 0

    def on_start(self, ctx):
        spec = self.spec
        if spec.self_only:
            draws = ctx.rng.integers(0, (spec.table_size - self.wid - 1)
                                     // self.w + 1,
                                     size=spec.requests_per_worker)
            self.indices = (draws * self.w + self.wid).tolist()
        else:
            self.indices = ctx.rng.integers(
                0, spec.table_size, size=spec.requests_per_worker).tolist()

    def step(self, ctx):
        start = self.issued
        end = min(start + self.chunk, len(self.indices))
        if start >= end:
            return False
        w = self.w
        wid = self.wid
        idxs = self.indices[start:end]
        rids = range(start, end)
        # request i of the chunk leaves at the chunk's start + i*work_ns,
        # the clock an insert loop would read before each insert
        self.send_ts.update(zip(rids, count(ctx.time_ns(), ctx.work_ns)))
        ctx.insert_many([idx % w for idx in idxs],
                        [(_REQ, wid, rid, idx)
                         for rid, idx in zip(rids, idxs)])
        self.issued = end
        return True

    def on_items(self, ctx, items):
        # a request is delivered, then answered one work_ns later
        dns = ctx.deliver_ns
        wns = ctx.work_ns
        times = []
        dests = []
        replies = []
        stamps = []
        t = ctx.time_ns()
        for it in items:
            t += dns
            times.append(t)
            p = it[1]
            if p[0] == _REQ:
                _, requester, rid, idx = p
                t += wns
                dests.append(requester)
                replies.append((_RESP, rid, idx, table_value(idx)))
                stamps.append(t)
            else:
                _, rid, idx, value = p
                if value != table_value(idx):
                    self.bad_values += 1
                self.rtts.append(times[-1] - self.send_ts.pop(rid))
        if dests:
            ctx.insert_stamped(dests, replies, stamps)
        return times


class IGResult(BenchResult):
    benchmark = "ig"

    def __init__(self, metrics, rtt_stats, matched, unmatched, bad_values):
        super().__init__(metrics)
        self.rtt = rtt_stats
        self.matched = matched
        self.unmatched = unmatched
        self.bad_values = bad_values

    def extra(self):
        return {
            "rtt": dict(self.rtt),
            "matched": self.matched,
            "unmatched": self.unmatched,
        }

    def verify(self):
        if self.unmatched:
            raise OracleMismatch(
                f"{self.unmatched} requests never got a response")
        if self.bad_values:
            raise OracleMismatch(f"{self.bad_values} responses carried the "
                                 "wrong table value")
        return self


def run_ig(spec: IGSpec, *, scheme, g, topo, mode="sequential", cfg=None,
           item_bytes=16, seed=None, timeout_s=DEFAULT_TIMEOUT_S,
           flush_timeout_ns=None, trace=False) -> IGResult:
    spec.validate(topo)
    run_seed = spec.seed if seed is None else seed
    handle, _ = launch(
        topo=topo, scheme=scheme, g=g, item_bytes=item_bytes,
        program=lambda wid: _IGWorker(wid, spec, topo, _CHUNK),
        mode=mode, seed=run_seed, cfg=cfg, trace=trace,
        flush_timeout_ns=flush_timeout_ns)
    metrics = handle.await_quiescence(timeout_s=timeout_s)

    drivers = [wk.driver for wk in handle.workers]
    rtts = array("q")
    for d in drivers:
        rtts.extend(d.rtts)
    result = IGResult(
        metrics, summarize(rtts),
        matched=len(rtts),
        unmatched=sum(len(d.send_ts) for d in drivers),
        bad_values=sum(d.bad_values for d in drivers))
    if trace:
        result.trace = handle.trace
    result.verify()
    return result
