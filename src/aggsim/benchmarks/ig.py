"""Index-gather workload: request/response round trips through the buffers.

Each worker looks up requests_per_worker random slots of a table dealt
cyclically across workers. A request travels to the slot's owner, the owner
answers with the slot value, and the round trip is timed on the requester's
own clock, so no cross-worker clock comparison is involved. Slot values are
a fixed hash of the index, which gives every worker a free oracle for the
responses it receives.

Requests and replies travel as int64 columns. A payload is one int64: a
response flag, the request id, and the slot index (request) or the slot
value (response). The requester is not carried: it is the request's source
worker, seq % total_workers. A worker issues each chunk of requests with one
ctx.insert_columns and stamps request i of the chunk with the chunk's start
time plus i*work_ns; on the virtual clock that is exactly the time the
request's insert begins. The sink takes a Batch group with numpy: one cumsum
gives its delivery times, which it returns as an int64 array, and it answers
the group's requests with one stamped column chunk. A tuple of
same-process items, one per chunk and destination, is taken item by item,
each item's delivery starting at the later of the clock and its stamp, and
answered with one stamped ctx.insert_many. Both engines take these paths;
in threaded mode the inserts carry their own wall stamps, so a request's
send stamp is that estimate, not the wall time its insert began.
"""
from __future__ import annotations

from array import array
from dataclasses import dataclass

import numpy as np

from ..errors import OracleMismatch, UsageError
from ..metrics import summarize
from ..runtime import WorkerProgram
from ..topology import Batch, Topology
from .base import BenchResult, DEFAULT_TIMEOUT_S, launch, positive

_CHUNK = 64  # requests per insert_columns call
# payload bits: 62 flags a response, 31-61 hold the request id, 0-30 the
# slot index (request) or the slot value (response)
_ID_SHIFT = 31
_LOW = (1 << _ID_SHIFT) - 1
_RESP = 1 << 62
_LIMIT = 1 << _ID_SHIFT  # most request ids, and most slots, a payload holds


def table_value(index):
    """Deterministic slot content; any worker can recompute it. Takes an
    int or an int64 array of indices below 2**31."""
    return (index * 2654435761) & 0x7FFFFFFF


def _reply(request):
    """The response payload to a request payload (an int or an int64
    array): the request's id and its slot's value."""
    index = request & _LOW
    return _RESP | (request - index) | table_value(index)


@dataclass(frozen=True)
class IGSpec:
    requests_per_worker: int
    table_size: int
    seed: int = 0
    self_only: bool = False  # restrict lookups to self-owned slots

    def __post_init__(self):
        for name in ("requests_per_worker", "table_size"):
            if positive(name, getattr(self, name)) > _LIMIT:
                raise UsageError(f"{name} must be at most {_LIMIT}: request "
                                 "ids and slot indices travel in 31 bits")

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
        # int64 arrays indexed by request id, drawn and sized at on_start
        self.indices = None
        self.send_ts = None
        self.answered = None
        self.rtts = array("q")
        self.bad_values = 0

    def on_start(self, ctx):
        spec = self.spec
        n = spec.requests_per_worker
        if spec.self_only:
            draws = ctx.rng.integers(0, (spec.table_size - self.wid - 1)
                                     // self.w + 1, size=n)
            self.indices = draws * self.w + self.wid
        else:
            self.indices = ctx.rng.integers(0, spec.table_size, size=n)
        self.send_ts = np.zeros(n, dtype=np.int64)
        self.answered = np.zeros(n, dtype=bool)

    def step(self, ctx):
        start = self.issued
        end = min(start + self.chunk, len(self.indices))
        if start >= end:
            return False
        idxs = self.indices[start:end]
        ramp = np.arange(end - start, dtype=np.int64)
        # request i of the chunk leaves at the chunk's start + i*work_ns,
        # the clock an insert loop would read before each insert
        self.send_ts[start:end] = ramp * ctx.work_ns + ctx.time_ns()
        ctx.insert_columns(idxs % self.w, (ramp + start) << _ID_SHIFT | idxs)
        self.issued = end
        return True

    def on_items(self, ctx, items):
        # a request is delivered, then answered one work_ns later: from
        # t = s, the clock at the group's start, item i is delivered at
        # max(t, created_at) + deliver_ns, and a request moves t on by
        # work_ns
        if type(items) is Batch:
            return self._on_batch(ctx, items)
        dns = ctx.deliver_ns
        wns = ctx.work_ns
        w = self.w
        times = []
        dests = []
        replies = []
        stamps = []
        t = ctx.time_ns()
        for it in items:
            # the engine's one rule: a same-process item arrives at its
            # stamp, and stamps never go back, so a message's items are
            # stamped no later than the message arrives
            if it[2] > t:
                t = it[2]
            t += dns
            times.append(t)
            p = it[1]
            if p < _RESP:
                t += wns
                dests.append(it[3] % w)
                replies.append(_reply(p))
                stamps.append(t)
            else:
                rid = (p >> _ID_SHIFT) & _LOW
                if rid >= self.issued:
                    raise _never_issued(self.wid, rid)
                if p & _LOW != table_value(self.indices.item(rid)):
                    self.bad_values += 1
                self.rtts.append(t - self.send_ts.item(rid))
                self.answered[rid] = True
        if dests:
            ctx.insert_many(dests, replies, stamps)
        return times

    def _on_batch(self, ctx, items):
        """on_items of a Batch group, with numpy: its times as an int64
        array, and its requests answered with one stamped column chunk."""
        payload = items.payload
        req = payload < _RESP
        work = req.astype(np.int64)
        work *= ctx.work_ns
        # the clock once item i is delivered and, if a request, answered
        done = np.cumsum(work + ctx.deliver_ns)
        done += ctx.time_ns()
        times = done - work
        n_req = int(np.count_nonzero(req))
        if n_req < len(payload):
            resp = ~req
            responses = payload[resp]
            rids = (responses >> _ID_SHIFT) & _LOW
            last = int(rids.max())
            if last >= self.issued:
                raise _never_issued(self.wid, last)
            self.bad_values += int(np.count_nonzero(
                responses & _LOW != table_value(self.indices[rids])))
            self.rtts.frombytes((times[resp] - self.send_ts[rids]).tobytes())
            self.answered[rids] = True
        if n_req:
            ctx.insert_columns(items.seq[req] % self.w, _reply(payload[req]),
                               done[req])
        return times


def _never_issued(wid, rid):
    return OracleMismatch(f"worker {wid} got a response to request {rid}, "
                          "which it never issued")


class IGResult(BenchResult):
    benchmark = "ig"

    def __init__(self, metrics, rtt_stats, matched, unmatched, bad_values,
                 repeats):
        super().__init__(metrics)
        self.rtt = rtt_stats
        self.matched = matched
        self.unmatched = unmatched
        self.bad_values = bad_values
        self.repeats = repeats  # responses to requests answered before

    def extra(self):
        return {
            "rtt": dict(self.rtt),
            "matched": self.matched,
            "unmatched": self.unmatched,
        }

    def verify(self):
        if self.repeats:
            raise OracleMismatch(f"{self.repeats} responses answered a "
                                 "request that was already answered")
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
        flush_timeout_ns=flush_timeout_ns, timeout_s=timeout_s)
    metrics = handle.await_quiescence(timeout_s=timeout_s)

    drivers = [wk.driver for wk in handle.workers]
    rtts = array("q")
    for d in drivers:
        rtts.extend(d.rtts)
    answered = sum(int(np.count_nonzero(d.answered)) for d in drivers)
    result = IGResult(
        metrics, summarize(rtts),
        matched=len(rtts),
        unmatched=sum(d.issued for d in drivers) - answered,
        bad_values=sum(d.bad_values for d in drivers),
        repeats=len(rtts) - answered)
    if trace:
        result.trace = handle.trace
    result.verify()
    return result
