"""Per-run counters, latency shards, and the summarized RunMetrics record.

Message counters are recorded at the origin when a coalesced message is
emitted; per-item latency samples are taken at delivery on the destination
worker's shard. Both engines append them to the shard's pending buffer and
fold that buffer into the shard in chunks; every shard is folded when the
shards are merged, once, at quiescence. Pending and kept samples are int64
buffers (array "q"), 8 bytes a sample, so no Python int per delivered item
outlives the delivery. A negative sample raises InternalInvariantError when
it is folded, not when it is appended. Percentiles use the nearest-rank rule
on a uniform reservoir (exact while sample counts stay under the cap), read
by selection rather than a full sort. merge copies the shards' kept samples
once, into one int64 array that the selection then reorders in place;
summarize selects in a copy, so its caller's samples keep their order.
"""
from __future__ import annotations

import json
import math
import random
from array import array
from dataclasses import dataclass, field

import numpy as np

from .errors import InternalInvariantError, UsageError

DEFAULT_SAMPLES_CAP = 1_000_000


def _rank_index(n: int, pct: float) -> int:
    """0-based index of the nearest-rank pct percentile among n samples."""
    if not 0 < pct <= 100:
        raise UsageError(f"percentile must be in (0, 100], got {pct}")
    return max(1, math.ceil(pct * n / 100)) - 1


def nearest_rank(sorted_samples, pct: float):
    """Nearest-rank percentile of an ascending list (pct in (0, 100])."""
    n = len(sorted_samples)
    if n == 0:
        return None
    return sorted_samples[_rank_index(n, pct)]


def _percentiles(arr, pcts) -> list:
    """nearest_rank(sorted(arr), p) for each p, by one selection that
    reorders arr, an ndarray the caller owns, in place.

    An int64 arr gives Python ints; an object arr (floats, ints beyond
    int64) is compared as Python objects, so the values are exactly those a
    full sort would give.
    """
    n = len(arr)
    if n == 0:
        return [None] * len(pcts)
    ranks = [_rank_index(n, p) for p in pcts]
    arr.partition(ranks)
    return arr[ranks].tolist()


def summarize(samples, total=None, count=None, maximum=None) -> dict:
    """Summary dict for a latency sample list, which it leaves as it is.

    total/count/maximum override the per-sample aggregates when the caller
    kept exact running values beside a capped reservoir.
    """
    if count is None:
        count = len(samples)
    if count == 0:
        return _summary(None, None, 0, None)
    if total is None:
        total = sum(samples)
    if maximum is None:
        maximum = max(samples)
    arr = np.array(samples)  # a copy, so the selection leaves samples be
    if arr.dtype.kind != "i":
        arr = np.array(samples, dtype=object)
    return _summary(arr, total, count, maximum)


def _summary(arr, total, count, maximum) -> dict:
    """summarize's dict, with the percentiles selected in arr in place."""
    if count == 0:
        return {"count": 0, "mean_ns": None, "p50_ns": None,
                "p99_ns": None, "max_ns": None}
    p50, p99 = _percentiles(arr, (50, 99))
    return {
        "count": count,
        "mean_ns": total / count,
        "p50_ns": p50,
        "p99_ns": p99,
        "max_ns": maximum,
    }


class LatencyShard:
    """One worker's latency samples: exact mean/max, capped uniform reservoir.

    pending holds the samples not yet applied and samples the reservoir;
    both are int64 buffers (array "q"), 8 bytes a sample. fold() applies the
    pending samples in order with exactly the effect of record() on each
    (Vitter's Algorithm R: a sample past the cap draws randrange(seen) and
    replaces that slot if it is below the cap), so when a sample is folded
    does not change the result. total stays an exact Python int. A negative
    sample stops the fold: the samples before it are applied, it stays
    first in pending, and InternalInvariantError is raised.
    """

    __slots__ = ("samples", "seen", "total", "max", "cap", "_rng", "pending")

    def __init__(self, cap: int, seed_material):
        self.samples = array("q")
        self.seen = 0
        self.total = 0
        self.max = 0
        self.cap = cap
        # repr: str seeding is stable across runs; tuple seeding is not
        self._rng = random.Random(repr(seed_material))
        self.pending = array("q")

    def record(self, d: int) -> None:
        """Fold the pending samples, then d."""
        self.pending.append(d)
        self.fold()

    # A numpy view exports p's buffer, and an exporting array cannot be
    # resized: each view is dropped before p is cut.
    def fold(self) -> None:
        """Apply the pending samples in order and empty pending."""
        p = self.pending
        if not p:
            return
        v = np.frombuffer(p, dtype=np.int64)
        if v.min() >= 0:
            del v
            self._apply(p)
            del p[:]
            return
        bad = int((v < 0).argmax())  # the first negative sample
        del v
        self._apply(p[:bad])
        del p[:bad]
        raise InternalInvariantError(f"negative latency sample {p[0]}")

    def _apply(self, ds) -> None:
        """Apply the non-negative samples ds (an array "q") in order."""
        k = len(ds)
        if not k:
            return
        v = np.frombuffer(ds, dtype=np.int64)
        top = int(v.max())
        # an int64 sum wraps silently; below this bound it cannot
        self.total += int(v.sum()) if top * k < 2**63 else sum(ds)
        seen = self.seen
        self.seen = seen + k
        if top > self.max:
            self.max = top
        s = self.samples
        cap = self.cap
        room = cap - len(s)
        if room >= k:
            s.extend(ds)
            return
        s.extend(ds[:room])
        # past the cap, the shard's n-th sample draws randrange(n)
        draws = map(self._rng.randrange, range(seen + room + 1, seen + k + 1))
        for j, d in zip(draws, ds[room:]):
            if j < cap:
                s[j] = d


class MessageLog:
    """Origin-side message counters, optionally with a trace.

    The engines' one transport pass (_BaseRun._transmit) updates the
    fields in place: msgs_full and msgs_flush count messages per scope by
    cause and items_by_scope their items, bytes_sent and transport_cost_ns
    sum over messages, written once per list, and trace, when kept, gets
    one dict per message. A message whose arrival is refused is recorded
    in none of them. The threaded engine transmits under its lock; the
    sequential one is single-threaded, so plain ints are safe in both.
    """

    __slots__ = ("msgs_full", "msgs_flush", "items_by_scope", "bytes_sent",
                 "transport_cost_ns", "trace")

    def __init__(self, n_scopes: int, trace: bool):
        self.msgs_full = [0] * n_scopes
        self.msgs_flush = [0] * n_scopes
        self.items_by_scope = [0] * n_scopes
        self.bytes_sent = 0
        self.transport_cost_ns = 0.0
        self.trace = [] if trace else None


@dataclass
class RunMetrics:
    """Merged result of one run. to_dict() is the stable JSON shape;
    merge derives self_sends and inserted_by_scope from the message log."""

    scheme: str
    mode: str
    seed: int
    topo: dict
    g: int
    item_bytes: int
    messages_sent: int
    full_messages: int
    flush_messages: int
    bytes_sent: int
    produced: int
    delivered: int
    self_sends: int
    item_latency: dict
    transport_cost_ns: float
    runtime_ns: int
    wasted_updates: int = 0
    out_of_order_events: int = 0
    # Internal detail kept out of the JSON summary; tests use these.
    messages_by_scope: list = field(default_factory=list, repr=False)
    inserted_by_scope: list = field(default_factory=list, repr=False)

    def to_dict(self) -> dict:
        return {
            "schema": 1,
            "scheme": self.scheme,
            "mode": self.mode,
            "seed": self.seed,
            "topo": dict(self.topo),
            "g": self.g,
            "item_bytes": self.item_bytes,
            "messages_sent": self.messages_sent,
            "full_messages": self.full_messages,
            "flush_messages": self.flush_messages,
            "bytes_sent": self.bytes_sent,
            "produced": self.produced,
            "delivered": self.delivered,
            "self_sends": self.self_sends,
            "item_latency": dict(self.item_latency),
            "wasted_updates": self.wasted_updates,
            "out_of_order_events": self.out_of_order_events,
            "transport_cost_ns": self.transport_cost_ns,
            "runtime_ns": self.runtime_ns,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, separators=(",", ":"))


def merge(log: MessageLog, shards, *, scheme, mode, seed, topo, g, item_bytes,
          produced, delivered, runtime_ns, quiesced=True) -> RunMetrics:
    """Fold the message log and worker shards into a RunMetrics.

    Refuses to summarize a run that has not quiesced: counters would be
    mid-flight and the latency population incomplete. At quiescence the
    log's items per scope are the buffered inserts; the rest went local.
    """
    if not quiesced:
        raise UsageError("summarize called before quiescence")
    total = 0
    count = 0
    maximum = 0
    for sh in shards:
        sh.fold()
        total += sh.total
        count += sh.seen
        if sh.max > maximum:
            maximum = sh.max
    # the one copy of the kept samples, which the selection then reorders
    samples = np.concatenate(
        [np.frombuffer(sh.samples, dtype=np.int64) for sh in shards]
        or [np.empty(0, dtype=np.int64)])
    lat = _summary(samples, total, count, maximum)
    msgs_by_scope = [a + b for a, b in zip(log.msgs_full, log.msgs_flush)]
    return RunMetrics(
        scheme=scheme, mode=mode, seed=seed, topo=topo, g=g,
        item_bytes=item_bytes,
        messages_sent=sum(msgs_by_scope),
        full_messages=sum(log.msgs_full),
        flush_messages=sum(log.msgs_flush),
        bytes_sent=log.bytes_sent,
        produced=produced, delivered=delivered,
        self_sends=produced - sum(log.items_by_scope),
        item_latency=lat,
        transport_cost_ns=log.transport_cost_ns,
        runtime_ns=runtime_ns,
        messages_by_scope=msgs_by_scope,
        inserted_by_scope=list(log.items_by_scope),
    )
