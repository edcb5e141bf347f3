import json
import math
import random
from array import array

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from aggsim.benchmarks.histogram import HistogramSpec, _HistWorker
from aggsim.errors import InternalInvariantError, UsageError
from aggsim.metrics import (LatencyShard, MessageLog, merge, nearest_rank,
                            summarize)
from aggsim.runtime import (_DELIVER_BUDGET, _FOLD_SAMPLES,
                            TransportConfig, WorkerProgram, spawn)
from aggsim.schemes import CoalescedMessage, create_aggregator
from aggsim.topology import Topology


def test_nearest_rank_basics():
    s = list(range(1, 101))
    assert nearest_rank(s, 50) == 50
    assert nearest_rank(s, 99) == 99
    assert nearest_rank(s, 100) == 100
    assert nearest_rank(s, 0.5) == 1
    assert nearest_rank([], 50) is None
    with pytest.raises(UsageError):
        nearest_rank(s, 0)


def test_summarize_empty():
    out = summarize([])
    assert out["count"] == 0
    assert out["mean_ns"] is None


def test_summarize_exact():
    out = summarize([4, 1, 3, 2])
    assert out == {"count": 4, "mean_ns": 2.5, "p50_ns": 2, "p99_ns": 4,
                   "max_ns": 4}


@given(st.lists(st.integers(0, 10**6), min_size=1, max_size=200))
def test_summarize_bounds(samples):
    out = summarize(samples)
    assert min(samples) <= out["p50_ns"] <= out["p99_ns"] <= out["max_ns"]
    assert out["max_ns"] == max(samples)
    assert out["mean_ns"] == pytest.approx(sum(samples) / len(samples))


def _sorted_nearest_rank(samples, pct):
    """Reference: nearest rank read from a full ascending sort."""
    s = sorted(samples)
    return s[max(1, math.ceil(pct * len(s) / 100)) - 1]


@given(st.one_of(
    st.lists(st.integers(0, 3), min_size=1, max_size=300),  # duplicates
    st.lists(st.integers(-10**12, 10**12), min_size=1, max_size=300),
    st.lists(st.integers(-2**70, 2**70), min_size=1, max_size=40),
    st.lists(st.floats(allow_nan=False), min_size=1, max_size=40)))
@example([7])
@example([9, 2])
@example([2, 2])
@example(list(range(100, 0, -1)))  # 99 * n / 100 is a whole rank
@example(list(range(200)))
@example([0] * 99 + [1])
@example([1] + [0] * 100)  # n = 101: 99 * n / 100 = 99.99 rounds up
def test_summarize_percentiles_match_full_sort(samples):
    out = summarize(samples)
    for key, pct in (("p50_ns", 50), ("p99_ns", 99)):
        want = _sorted_nearest_rank(samples, pct)
        assert out[key] == want
        assert type(out[key]) is type(want)  # Python ints: same JSON


@given(st.lists(st.integers(-10**12, 10**12), min_size=1, max_size=200))
def test_summarize_leaves_the_samples_unreordered(samples):
    # the selection runs on summarize's own copy, whatever the caller passed
    for given_as in (list, lambda s: array("q", s),
                     lambda s: np.array(s, dtype=np.int64),
                     lambda s: np.array(s, dtype=np.float64)):
        arg = given_as(samples)
        before = list(arg)
        summarize(arg)
        assert list(arg) == before


def test_shard_exact_until_cap():
    shard = LatencyShard(cap=100, seed_material=(1, 2))
    for d in range(50):
        shard.record(d)
    assert shard.seen == 50
    assert sorted(shard.samples) == list(range(50))
    assert shard.total == sum(range(50))
    assert shard.max == 49


def test_shard_reservoir_caps_memory():
    shard = LatencyShard(cap=32, seed_material=0)
    for d in range(10_000):
        shard.record(d)
    assert len(shard.samples) == 32
    assert shard.seen == 10_000
    assert shard.max == 9_999
    assert all(0 <= s < 10_000 for s in shard.samples)


def test_shard_rejects_negative():
    shard = LatencyShard(cap=8, seed_material=0)
    with pytest.raises(InternalInvariantError):
        shard.record(-1)


def _shard_state(shard):
    return (list(shard.samples), shard.seen, shard.total, shard.max,
            shard._rng.getstate())


class _RecordLoop:
    """Reference shard: Algorithm R applied one sample at a time."""

    def __init__(self, cap, seed_material):
        self.samples = []
        self.seen = 0
        self.total = 0
        self.max = 0
        self.cap = cap
        self._rng = random.Random(repr(seed_material))

    def record(self, d):
        if d < 0:
            raise InternalInvariantError(f"negative latency sample {d}")
        self.seen += 1
        self.total += d
        self.max = max(self.max, d)
        if len(self.samples) < self.cap:
            self.samples.append(d)
        else:
            j = self._rng.randrange(self.seen)
            if j < self.cap:
                self.samples[j] = d


@given(st.integers(1, 12), st.integers(0, 30), st.integers(0, 2000),
       st.integers(0, 60),
       st.lists(st.lists(st.integers(0, 3000), max_size=20), max_size=6),
       st.data())
def test_fold_equals_record_loop(cap, pre, t0, step, groups, data):
    """Samples appended to pending and folded at any points have the effect
    of the record loop over t0 + (i+1)*step - created_at: below the cap,
    across it into the reservoir (RNG state included), and up to a
    negative sample, where both raise. record() agrees too."""
    folded = LatencyShard(cap, ("s", 1))
    recorded = LatencyShard(cap, ("s", 1))
    scalar = _RecordLoop(cap, ("s", 1))
    for d in range(pre):
        folded.record(d)
        recorded.record(d)
        scalar.record(d)
    for created in groups:
        ds = [t0 + (i + 1) * step - c for i, c in enumerate(created)]
        folded.pending.extend(ds)
        try:
            for d in ds:
                scalar.record(d)
                recorded.record(d)
        except InternalInvariantError:
            with pytest.raises(InternalInvariantError):
                folded.fold()
            assert _shard_state(folded) == _shard_state(scalar)
            assert _shard_state(recorded) == _shard_state(scalar)
            return
        if data.draw(st.booleans()):
            folded.fold()
            assert len(folded.pending) == 0
            assert _shard_state(folded) == _shard_state(scalar)
    folded.fold()
    assert _shard_state(folded) == _shard_state(scalar)
    assert _shard_state(recorded) == _shard_state(scalar)


def _merge(shards):
    log = MessageLog(n_scopes=1, trace=False)
    return merge(log, shards, scheme="ww", mode="sequential", seed=0,
                 topo={}, g=1, item_bytes=8, produced=0, delivered=0,
                 runtime_ns=0)


def test_negative_sample_raises_at_fold():
    shard = LatencyShard(cap=4, seed_material=0)
    for d in (5, 1, 7, 3, 9, 2):  # past the cap: the RNG has drawn
        shard.record(d)
    before = _shard_state(shard)
    shard.pending.append(-1)  # appending checks nothing
    assert _shard_state(shard) == before
    with pytest.raises(InternalInvariantError):
        shard.fold()
    assert _shard_state(shard) == before
    with pytest.raises(InternalInvariantError):
        _merge([shard])


class _PendingProbe(_HistWorker):
    """Histogram driver that checks its shard's pending buffer on every
    delivered group."""

    def on_items(self, ctx, items):
        assert len(ctx.shard.pending) < _FOLD_SAMPLES + _DELIVER_BUDGET + 64
        super().on_items(ctx, items)


def test_sequential_run_keeps_pending_bounded_and_folds_at_merge():
    topo = Topology(1, 2, 2)
    spec = HistogramSpec(updates_per_worker=20_000, table_size=4096, seed=3)
    agg = create_aggregator("wps", topo, 64, 16)
    h = spawn(topo, agg,
              program=lambda wid: _PendingProbe(wid, spec, topo, 512),
              seed=3)
    m = h.await_quiescence(timeout_s=60)
    assert m.delivered == 20_000 * topo.total_workers
    assert m.item_latency["count"] == m.delivered
    assert all(len(wk.shard.pending) == 0 for wk in h.workers)
    assert sum(wk.shard.seen for wk in h.workers) == m.delivered


def test_threaded_run_keeps_pending_bounded():
    # each worker receives more than _FOLD_SAMPLES items, so its worker
    # thread folds mid-run, and every sample still reaches the merge
    topo = Topology(1, 2, 2)
    spec = HistogramSpec(updates_per_worker=8_000, table_size=4096, seed=3)
    agg = create_aggregator("wps", topo, 64, 16)
    h = spawn(topo, agg, mode="threaded",
              program=lambda wid: _PendingProbe(wid, spec, topo, 512),
              seed=3)
    m = h.await_quiescence(timeout_s=60)
    assert all(wk.delivered > _FOLD_SAMPLES for wk in h.workers)
    assert m.delivered == 8_000 * topo.total_workers
    assert m.item_latency["count"] == m.delivered
    assert all(len(wk.shard.pending) == 0 for wk in h.workers)


def test_shard_total_is_exact_past_int64():
    # an int64 sum of these two samples would wrap to -2**63
    folded = LatencyShard(cap=4, seed_material=0)
    folded.pending.extend([2**62, 2**62])
    folded.fold()
    assert folded.total == 2**63
    assert folded.total / folded.seen == 2**62
    merged = LatencyShard(cap=4, seed_material=0)
    merged.pending.extend([2**62, 2**62])
    lat = _merge([merged]).item_latency
    assert merged.total == 2**63
    assert lat == {"count": 2, "mean_ns": 2**62, "p50_ns": 2**62,
                   "p99_ns": 2**62, "max_ns": 2**62}


@given(st.lists(st.tuples(st.integers(1, 12),
                          st.lists(st.integers(0, 10**6), max_size=40),
                          st.integers(0, 40)),
                min_size=1, max_size=5))
def test_merge_equals_summarize_over_record_loops(specs):
    """merge over shards, each folded part way and past its cap or not,
    gives summarize over the record loops' reservoirs and exact counts."""
    shards = []
    refs = []
    for i, (cap, ds, cut) in enumerate(specs):
        shard = LatencyShard(cap, ("m", i))
        ref = _RecordLoop(cap, ("m", i))
        shard.pending.extend(ds[:cut])
        shard.fold()
        shard.pending.extend(ds[cut:])  # folded by merge
        for d in ds:
            ref.record(d)
        shards.append(shard)
        refs.append(ref)
    count = sum(r.seen for r in refs)
    want = summarize([d for r in refs for d in r.samples],
                     total=sum(r.total for r in refs), count=count,
                     maximum=max(r.max for r in refs) if count else None)
    lat = _merge(shards).item_latency
    assert lat == want
    if count:
        assert all(type(lat[k]) is int
                   for k in ("p50_ns", "p99_ns", "max_ns"))


@given(st.lists(st.lists(st.integers(0, 10**9), max_size=60), max_size=6))
def test_merge_percentiles_match_a_sort(parts):
    """merge's in-place selection over the shards' kept samples reads the
    nearest ranks of one full sort, and leaves each shard's samples be."""
    shards = []
    for i, ds in enumerate(parts):
        shard = LatencyShard(1000, ("s", i))  # under the cap: all kept
        shard.pending.extend(ds)
        shards.append(shard)
    lat = _merge(shards).item_latency
    flat = [d for ds in parts for d in ds]
    assert lat["count"] == len(flat)
    if flat:
        assert lat["p50_ns"] == _sorted_nearest_rank(flat, 50)
        assert lat["p99_ns"] == _sorted_nearest_rank(flat, 99)
        assert lat["max_ns"] == max(flat)
    else:
        assert lat["p50_ns"] is None and lat["max_ns"] is None
    assert [list(sh.samples) for sh in shards] == parts


def _msg(k, cause, src=0, dest_scope=1, t=2):
    items = [(dest_scope, None, 0, i) for i in range(k)]
    return CoalescedMessage(src // t, dest_scope, items, False, cause, 0, src)


def _accounting_run(trace):
    """An unstarted ww run on 4 workers whose MessageLog is fed by calling
    _transmit by hand: 8-byte items, 32 header bytes, alpha 2 ns, beta
    0.5 ns per byte."""
    topo = Topology(1, 2, 2)
    cfg = TransportConfig(alpha_ns=2.0, beta_ns_per_byte=0.5,
                          header_bytes=32)
    return spawn(topo, create_aggregator("ww", topo, 4, 8), cfg,
                 program=lambda wid: WorkerProgram(), trace=trace)


def test_message_log_counts_and_bytes():
    run = _accounting_run(trace=False)
    # each message is queued at its departure plus its network cost, but
    # the flush message's 22 is clamped to the full one's 30 on channel
    # (0, 0); _transmit returns the entries queued
    assert run._transmit([_msg(3, "full", src=1)]) == 1
    assert run._transmit([_msg(1, "flush", src=1),
                          _msg(2, "full", src=3, dest_scope=0)]) == 2
    assert [[a for a, _ in w.queue] for w in run.workers] == [
        [2.0 + 0.5 * (2 * 8 + 32)], [2.0 + 0.5 * (3 * 8 + 32)] * 2, [], []]
    log = run._log
    assert log.msgs_full == [0, 1, 0, 1]
    assert log.msgs_flush == [0, 1, 0, 0]
    assert log.items_by_scope == [0, 4, 0, 2]
    assert log.bytes_sent == (3 * 8 + 32) + (1 * 8 + 32) + (2 * 8 + 32)
    assert log.transport_cost_ns == (2 + 28.0) + (2 + 20.0) + (2 + 24.0)
    assert log.trace is None and run.arrival_log is None


def test_message_log_trace_fields():
    run = _accounting_run(trace=True)
    msg = CoalescedMessage(1, 0, [(0, None, 5, 3), (1, None, 6, 7)], True,
                           "flush", 9, 2)
    run._transmit([msg])
    assert run.trace == [{"origin": 1, "dest_scope": 0, "k": 2,
                          "cause": "flush", "grouped": True, "sent_at": 9}]
    assert run.arrival_log == [(1, 0, 9 + 2 + 0.5 * (2 * 8 + 32))]


def test_json_stable_key_order():
    out = summarize([1, 2])
    a = json.dumps(out, sort_keys=True)
    b = json.dumps(dict(reversed(list(out.items()))), sort_keys=True)
    assert a == b
