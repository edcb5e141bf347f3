import gc
import math
import sys
import threading
import time
from collections import Counter, defaultdict

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from aggsim import runtime
from aggsim.benchmarks.base import resolve_scheme
from aggsim.costmodel import CostInputs, grouping_cost, send_cost
from aggsim.errors import (InternalInvariantError, QuiescenceTimeout,
                           UsageError)
from aggsim.benchmarks import (HistogramSpec, IGSpec, PholdSpec, SSSPSpec,
                               random_graph, run_histogram, run_sssp)
from aggsim.benchmarks.histogram import _HistWorker
from aggsim.benchmarks.ig import _IGWorker
from aggsim.benchmarks.phold import _PholdWorker
from aggsim.runtime import (MAX_THREADED_WORKERS, TransportConfig,
                            WorkerProgram, spawn)
from aggsim.schemes import GroupingStats, SchemeKind, create_aggregator
from aggsim.topology import Batch, Item, Topology

from helpers import total_buffered

ALL_KINDS = list(SchemeKind)


def _spawn(topo, kind, g, *, cfg=None, mode="sequential", program,
           timeout_ns=None, item_bytes=8, **kw):
    agg = create_aggregator(kind, topo, g, item_bytes)
    if timeout_ns is not None:
        agg.set_flush_timeout(timeout_ns)
    return spawn(topo, agg, cfg, mode=mode, program=program, **kw)


class Scatter(WorkerProgram):
    """Every worker sends n items round-robin over all workers."""

    def __init__(self, wid, n, w):
        self.wid = wid
        self.n = n
        self.w = w
        self.sent = 0
        self.received = 0

    def step(self, ctx):
        if self.sent >= self.n:
            return False
        ctx.insert((self.wid + 1 + self.sent) % self.w, self.sent)
        self.sent += 1
        return True

    def on_item(self, ctx, item):
        self.received += 1


def scatter(n, w):
    return lambda wid: Scatter(wid, n, w)


class SingleStream(WorkerProgram):
    """Worker 0 sends z items to worker 1; everyone else idles."""

    def __init__(self, wid, z):
        self.wid = wid
        self.z = z
        self.sent = 0

    def step(self, ctx):
        if self.wid != 0 or self.sent >= self.z:
            return False
        ctx.insert(1, None)
        self.sent += 1
        return True

    def on_item(self, ctx, item):
        pass


@pytest.mark.parametrize("kind", ALL_KINDS)
@pytest.mark.parametrize("mode", ["sequential", "threaded"])
def test_exactly_once(kind, mode):
    topo = Topology(1, 2, 2)
    n = 500 if mode == "threaded" else 2000
    h = _spawn(topo, kind, 16, mode=mode, program=scatter(n, 4),
               record_items=True)
    m = h.await_quiescence(timeout_s=60)
    assert m.produced == m.delivered == 4 * n
    assert Counter(h.delivered_seqs()) == Counter(h.inserted_seqs())


def test_same_seed_same_json():
    def run():
        h = _spawn(Topology(2, 2, 2), SchemeKind.WPS, 8,
                   program=scatter(300, 8), seed=41)
        return h.await_quiescence(timeout_s=30).to_json()

    assert run() == run()


def test_seed_changes_schedule():
    def run(seed):
        h = _spawn(Topology(2, 2, 2), SchemeKind.WPS, 8,
                   program=scatter(300, 8), seed=seed)
        return h.await_quiescence(timeout_s=30).to_json()

    assert run(1) != run(2)  # runtime/latency depend on the schedule


def test_modes_agree_on_deterministic_counts():
    results = {}
    for mode in ("sequential", "threaded"):
        h = _spawn(Topology(1, 2, 2), SchemeKind.WW, 16, mode=mode,
                   program=scatter(400, 4))
        results[mode] = h.await_quiescence(timeout_s=60)
    seq, thr = results["sequential"], results["threaded"]
    assert seq.produced == thr.produced
    assert seq.delivered == thr.delivered
    # ww buffers fill from per-source deterministic streams
    assert seq.full_messages == thr.full_messages
    assert seq.self_sends == thr.self_sends


def test_transport_cost_matches_formula_exactly():
    g, m, z = 64, 8, 16 * 64
    cfg = TransportConfig(alpha_ns=111.5, beta_ns_per_byte=0.25)
    h = _spawn(Topology(1, 2, 1), SchemeKind.WW, g, cfg=cfg, item_bytes=m,
               program=lambda wid: SingleStream(wid, z))
    metrics = h.await_quiescence(timeout_s=30)
    assert metrics.flush_messages == 0  # z is a multiple of g: no partials
    assert metrics.messages_sent == z // g
    want = send_cost(CostInputs(g=g, m=m, n_processes=2, workers_per_proc=1,
                                z=z, alpha_ns=111.5, beta_ns_per_byte=0.25))
    assert metrics.transport_cost_ns == pytest.approx(want, rel=1e-9)


def test_comm_context_serializes_egress():
    cfg = TransportConfig(comm_cost_ns=500.0, comm_enabled=True)
    h = _spawn(Topology(1, 2, 1), SchemeKind.WW, 4, cfg=cfg,
               program=lambda wid: SingleStream(wid, 400))
    h.await_quiescence(timeout_s=30)
    stats = h.comm_stats()
    assert stats["enabled"]
    row = stats["per_process"][0]
    assert row["messages"] == 100
    window = row["last_done_ns"] - row["first_start_ns"]
    assert window >= row["messages"] * 500.0  # rate capped at 1/comm_cost
    assert row["busy_ns"] == pytest.approx(100 * 500.0)


def test_comm_disabled_by_default():
    h = _spawn(Topology(1, 2, 1), SchemeKind.WW, 4,
               program=lambda wid: SingleStream(wid, 8))
    h.await_quiescence(timeout_s=30)
    assert not h.comm_stats()["enabled"]


class _OneShotThenBusy(WorkerProgram):
    """Worker 0 sends one item, then grinds local work for a long span."""

    def __init__(self, wid, rounds):
        self.wid = wid
        self.rounds = rounds
        self.sent = False

    def step(self, ctx):
        if self.wid != 0:
            return False
        if not self.sent:
            ctx.insert(1, None)
            self.sent = True
            return True
        if self.rounds:
            self.rounds -= 1
            ctx.advance(1000)
            return True
        return False

    def on_item(self, ctx, item):
        pass


def test_flush_timeout_delivers_mid_run():
    def max_latency(timeout_ns):
        h = _spawn(Topology(1, 2, 1), SchemeKind.WW, 1024,
                   timeout_ns=timeout_ns,
                   program=lambda wid: _OneShotThenBusy(wid, 500))
        return h.await_quiescence(timeout_s=30).item_latency["max_ns"]

    # without a timeout the item waits for the end-of-run stall flush
    assert max_latency(None) > 400_000
    assert max_latency(10_000) < 50_000


class _Staggered(WorkerProgram):
    """Workers 0 and 1 fill buffers once, after an idle lead, then stop."""

    PLAN = {0: (50, (2,)), 1: (0, (2, 3))}  # wid: (lead ns, destinations)

    def __init__(self, wid):
        self.todo = self.PLAN.get(wid)

    def step(self, ctx):
        if self.todo is None:
            return False
        lead, dests = self.todo
        self.todo = None
        ctx.advance(lead)
        ctx.insert_many(dests, [None] * len(dests))
        return True

    def on_item(self, ctx, item):
        pass


def test_stalled_run_flushes_owners_in_deadline_order():
    # owner 1's buffers are stamped 100 and 200 and owner 0's at 150, so
    # their deadlines interleave; the stalled run must flush them at 1100,
    # 1150 and 1200 in that order, which the shared comm context of
    # process 0 then serves back to back
    cfg = TransportConfig(comm_cost_ns=500.0, comm_enabled=True)
    h = _spawn(Topology(1, 2, 2), SchemeKind.WW, 1024, cfg=cfg,
               timeout_ns=1000, program=_Staggered, trace=True)
    h.await_quiescence(timeout_s=30)
    assert [(e["sent_at"], e["origin"], e["dest_scope"], e["cause"])
            for e in h.trace] == [(1100, 0, 2, "flush"), (1150, 0, 2, "flush"),
                                  (1200, 0, 3, "flush")]
    assert [h.workers[0].now, h.workers[1].now] == [1150, 1200]
    row = h.comm_stats()["per_process"][0]
    assert (row["first_start_ns"], row["last_done_ns"]) == (1100, 2600)


class _Spinner(WorkerProgram):
    def step(self, ctx):
        ctx.advance(10)
        return True

    def on_item(self, ctx, item):
        pass


def test_wall_budget_raises_quiescence_timeout():
    h = _spawn(Topology(1, 1, 2), SchemeKind.WW, 4,
               program=lambda wid: _Spinner())
    with pytest.raises(QuiescenceTimeout):
        h.await_quiescence(timeout_s=0.2)


@pytest.mark.parametrize("mode", ["sequential", "threaded"])
@pytest.mark.parametrize("token", ["ww", "wps", "wsp", "pp", "none"])
def test_same_process_traffic_sends_no_messages(token, mode):
    kind, g = resolve_scheme(token)
    h = _spawn(Topology(1, 1, 4), kind, g or 16, mode=mode,
               program=scatter(100, 4))
    m = h.await_quiescence(timeout_s=30)
    assert m.messages_sent == 0
    assert m.self_sends == m.produced == 400
    assert m.delivered == 400


@pytest.mark.parametrize("mode", ["sequential", "threaded"])
@pytest.mark.parametrize("call", ["run_phase", "await_quiescence"])
@pytest.mark.parametrize("budget", [math.nan, math.inf, 0, -1],
                         ids=["nan", "inf", "zero", "negative"])
def test_wall_budget_refuses_what_it_cannot_honour(mode, call, budget):
    # refused before the run moves, so a valid budget still settles it
    h = _spawn(Topology(1, 2, 2), SchemeKind.WPS, 4, mode=mode,
               program=scatter(50, 4))
    with pytest.raises(UsageError, match="timeout_s must be None or a "
                                         "finite number of seconds > 0"):
        getattr(h, call)(timeout_s=budget)
    m = h.await_quiescence(timeout_s=30)
    assert m.delivered == m.produced == 200
    assert not any(w.thread and w.thread.is_alive() for w in h.workers)


def test_arrivals_fifo_per_channel():
    h = _spawn(Topology(2, 2, 2), SchemeKind.WPS, 4,
               program=scatter(200, 8), record_arrivals=True)
    h.await_quiescence(timeout_s=30)
    chans = defaultdict(list)
    for po, dp, arrival in h.arrival_log:
        chans[(po, dp)].append(arrival)
    assert chans
    for seq in chans.values():
        assert all(a <= b for a, b in zip(seq, seq[1:]))


def test_threaded_records_arrivals():
    h = _spawn(Topology(2, 1, 2), SchemeKind.WPS, 4, mode="threaded",
               program=scatter(100, 4), record_arrivals=True)
    m = h.await_quiescence(timeout_s=60)
    assert m.messages_sent > 0
    assert len(h.arrival_log) == m.messages_sent
    assert {(po, dp) for po, dp, _ in h.arrival_log} == {(0, 1), (1, 0)}


class _YieldingStats(GroupingStats):
    """Grouping counters whose read gives up the interpreter lock, so an
    unlocked read-modify-write of touches likely loses a racing update."""

    __slots__ = ("_touches",)

    @property
    def touches(self):
        value = self._touches
        time.sleep(0)
        return value

    @touches.setter
    def touches(self, value):
        self._touches = value


@pytest.mark.parametrize("kind", [SchemeKind.WPS, SchemeKind.WSP,
                                  SchemeKind.PP])
def test_threaded_grouping_counts_every_pass(kind):
    # wps and pp group on arrival in the sender's thread, outside the
    # transport lock; wsp groups on the owner thread at seal
    topo = Topology(2, 2, 2)
    agg = create_aggregator(kind, topo, 2, 8)
    agg.grouping_stats = _YieldingStats()
    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        h = spawn(topo, agg, mode="threaded", program=scatter(200, 8),
                  trace=True)
        h.await_quiescence(timeout_s=60)
    finally:
        sys.setswitchinterval(old)
    stats = agg.grouping_stats
    assert stats.calls == len(h.trace) > 0
    assert stats.touches == sum(grouping_cost(e["k"], topo.workers_per_proc)
                                for e in h.trace)


class _Rewinder(WorkerProgram):
    def step(self, ctx):
        ctx.advance(-1)
        return True


class _HalfStep(WorkerProgram):
    def step(self, ctx):
        ctx.advance(0.5)
        return True


class _Mismatched(WorkerProgram):
    def step(self, ctx):
        ctx.insert_many([0, 1], [None])
        return True


def test_usage_validation():
    topo = Topology(1, 2, 1)
    agg = create_aggregator(SchemeKind.WW, Topology(1, 2, 2), 4, 8)
    with pytest.raises(UsageError):  # aggregator built for another topology
        spawn(topo, agg, mode="sequential", program=lambda wid: _Spinner())
    agg2 = create_aggregator(SchemeKind.WW, topo, 4, 8)
    with pytest.raises(UsageError):
        spawn(topo, agg2, mode="warp", program=lambda wid: _Spinner())
    with pytest.raises(UsageError):
        TransportConfig(alpha_ns=-1)
    # a driver may not move its clock backwards or by a fraction of a ns,
    # nor pass insert_many unequal lists, in either engine
    for mode in ("sequential", "threaded"):
        for driver in (_Rewinder, _HalfStep, _Mismatched):
            h = _spawn(topo, SchemeKind.WW, 4, mode=mode,
                       program=lambda wid, d=driver: d())
            with pytest.raises(UsageError):
                h.await_quiescence(timeout_s=30)


@pytest.mark.parametrize("value", [math.nan, math.inf])
@pytest.mark.parametrize("field", ["alpha_ns", "beta_ns_per_byte",
                                   "comm_cost_ns"])
def test_transport_config_refuses_non_finite(field, value):
    with pytest.raises(UsageError, match=f"{field} must be finite"):
        TransportConfig(**{field: value})


class _RejectedInsert(WorkerProgram):
    """Worker 0 offers destination 99 (out of range) alone or inside a
    chunk, catches the refusal, then sends worker 1 one item."""

    def __init__(self, wid, batch):
        self.wid = wid
        self.batch = batch
        self.done = False

    def step(self, ctx):
        if self.wid or self.done:
            return False
        self.done = True
        with pytest.raises(UsageError):
            if self.batch:
                ctx.insert_many([1, 99], [None, None])
            else:
                ctx.insert(99, None)
        ctx.insert(1, None)
        return True

    def on_item(self, ctx, item):
        pass


@pytest.mark.parametrize("batch", [False, True])
@pytest.mark.parametrize("mode", ["sequential", "threaded"])
def test_rejected_insert_leaves_no_trace(mode, batch):
    # a refused insert moves no clock, seq or log, and a refused chunk
    # inserts none of its items, so the run still quiesces
    h = _spawn(Topology(1, 2, 1), SchemeKind.WW, 4, mode=mode,
               program=lambda wid: _RejectedInsert(wid, batch),
               record_items=True)
    m = h.await_quiescence(timeout_s=30)
    assert m.produced == m.delivered == 1
    assert h.inserted_seqs() == h.delivered_seqs() == [0]
    if mode == "sequential":
        assert h.workers[0].now == 100  # one work_ns step, the accepted one


class _MiscountingSink(WorkerProgram):
    """Worker 0 sends worker 1 one item; the batch sink returns one delivery
    time too many."""

    def __init__(self, wid):
        self.wid = wid
        self.sent = False

    def step(self, ctx):
        if self.wid or self.sent:
            return False
        ctx.insert(1, None)
        self.sent = True
        return True

    def on_items(self, ctx, items):
        return [ctx.time_ns()] * (len(items) + 1)


@pytest.mark.parametrize("mode", ["sequential", "threaded"])
def test_batch_sink_must_time_every_item(mode):
    h = _spawn(Topology(1, 2, 1), SchemeKind.WW, 1, mode=mode,
               program=_MiscountingSink)
    with pytest.raises(UsageError, match="2 delivery times for 1 items"):
        h.await_quiescence(timeout_s=30)


class _BadTimesSink(_MiscountingSink):
    """As _MiscountingSink, but the batch sink returns the time `bad` for
    every item."""

    def __init__(self, wid, bad):
        super().__init__(wid)
        self.bad = bad

    def on_items(self, ctx, items):
        return [self.bad] * len(items)


@pytest.mark.parametrize("bad", [1500.0, 2**63])
@pytest.mark.parametrize("mode", ["sequential", "threaded"])
def test_batch_sink_times_are_int64_ns(mode, bad):
    # a float time or one past int64 is refused as a usage error, not
    # surfaced as the sample buffer's TypeError or OverflowError
    h = _spawn(Topology(1, 2, 1), SchemeKind.WW, 1, mode=mode,
               program=lambda wid: _BadTimesSink(wid, bad))
    with pytest.raises(UsageError, match=f"delivery time {bad!r} "):
        h.await_quiescence(timeout_s=30)


class _StampRecorder(WorkerProgram):
    """Worker 0 sends worker 1 `n` items in one chunk; worker 1's batch sink
    records each group's send stamps and returns None."""

    def __init__(self, wid, n):
        self.wid = wid
        self.n = n
        self.groups = []

    def step(self, ctx):
        if self.wid or self.n == 0:
            return False
        ctx.insert_many([1] * self.n, [None] * self.n)
        self.n = 0
        return True

    def on_items(self, ctx, items):
        self.groups.append([it.created_at for it in items])


def test_threaded_none_sink_samples_follow_the_sequential_rule():
    # item i of a group taken at s is delivered at s + (i+1)*deliver_ns, so
    # sample_i + created_at_i - (i+1)*deliver_ns is s for every item
    n = 8
    h = _spawn(Topology(1, 2, 1), SchemeKind.WW, n, mode="threaded",
               program=lambda wid: _StampRecorder(wid, n), deliver_ns=50)
    m = h.await_quiescence(timeout_s=30)
    assert m.delivered == n
    (group,) = h.workers[1].driver.groups
    samples = h.workers[1].shard.samples
    assert len(group) == len(samples) == n
    starts = {d + c - (i + 1) * 50
              for i, (d, c) in enumerate(zip(samples, group))}
    assert len(starts) == 1


@pytest.mark.parametrize("mode", ["sequential", "threaded"])
def test_threaded_sink_time_before_the_send_raises(mode):
    # a delivery time before the item's send stamp is a negative sample,
    # which raises when it is folded, in the threaded engine too
    class _Early(_MiscountingSink):
        def on_items(self, ctx, items):
            return [it.created_at - 1 for it in items]

    h = _spawn(Topology(1, 2, 1), SchemeKind.WW, 1, mode=mode,
               program=_Early)
    with pytest.raises(InternalInvariantError,
                       match="negative latency sample -1"):
        h.await_quiescence(timeout_s=30)


@pytest.mark.parametrize("mode", ["sequential", "threaded"])
@pytest.mark.parametrize("arg,bad", [("work_ns", 0.5), ("deliver_ns", 0.5),
                                     ("work_ns", -5), ("deliver_ns", -1),
                                     ("work_ns", None)])
def test_spawn_refuses_non_int_clock_steps(mode, arg, bad):
    def program(wid):
        raise AssertionError("a context was built")
    with pytest.raises(UsageError, match=f"{arg} must be a non-negative "
                                         f"int, got {bad!r}"):
        _spawn(Topology(1, 2, 1), SchemeKind.WW, 4, mode=mode,
               program=program, **{arg: bad})


class _BadStamp(WorkerProgram):
    """Worker 0 offers worker 1 a chunk stamped `stamps`, checks that the
    refusal moved no clock, seq or buffer, then sends one item."""

    def __init__(self, wid, stamps):
        self.wid = wid
        self.stamps = stamps
        self.done = False

    def step(self, ctx):
        if self.wid or self.done:
            return False
        self.done = True
        now, seq = ctx.now, ctx.seq_next
        with pytest.raises(UsageError) as err:
            ctx.insert_stamped([1, 1], [None, None], self.stamps)
        assert (ctx.now, ctx.seq_next) == (now, seq)
        assert total_buffered(ctx._agg) == 0
        self.error = str(err.value)
        ctx.insert(1, None)
        return True

    def on_item(self, ctx, item):
        pass


@pytest.mark.parametrize("mode", ["sequential", "threaded"])
@pytest.mark.parametrize("stamps,error", [
    ([100, 100.5], "insert stamp 100.5 is not"),
    ([None, 100], "insert stamp None is not"),
    ([100, 2**63], f"insert stamp {2**63} is not"),
    ([-2**63 - 1, 100], f"insert stamp {-2**63 - 1} is not"),
    ([100], "2 destinations but 1 stamps"),
], ids=["float", "none", "past-int64", "below-int64", "short"])
def test_insert_stamped_refuses_non_int64_stamps(mode, stamps, error):
    # checked before anything moves; the threaded engine checks the stamps
    # it then replaces with wall times
    h = _spawn(Topology(1, 2, 1), SchemeKind.WW, 4, mode=mode,
               program=lambda wid: _BadStamp(wid, stamps), record_items=True)
    m = h.await_quiescence(timeout_s=30)
    assert m.produced == m.delivered == 1
    assert h.inserted_seqs() == h.delivered_seqs() == [0]
    assert h.workers[0].driver.error.startswith(error)


class _BadColumns(WorkerProgram):
    """Worker 0 offers worker 1 the column chunk (dests, payloads), checks
    that the refusal moved no clock, seq or buffer, then sends one item."""

    def __init__(self, wid, dests, payloads):
        self.wid = wid
        self.chunk = (dests, payloads)
        self.done = False

    def step(self, ctx):
        if self.wid or self.done:
            return False
        self.done = True
        now, seq = ctx.now, ctx.seq_next
        with pytest.raises(UsageError) as err:
            ctx.insert_columns(*self.chunk)
        assert (ctx.now, ctx.seq_next) == (now, seq)
        assert total_buffered(ctx._agg) == 0
        self.error = str(err.value)
        ctx.insert(1, None)
        return True

    def on_item(self, ctx, item):
        pass


_I64 = np.array([1, 1], dtype=np.int64)


@pytest.mark.parametrize("mode", ["sequential", "threaded"])
@pytest.mark.parametrize("dests,payloads,error", [
    ([1, 1], _I64, "insert_columns takes 1-d int64 arrays, got list"),
    (_I64, _I64.astype(np.float64), "insert_columns takes 1-d int64 arrays"),
    (_I64.reshape(1, 2), _I64, "insert_columns takes 1-d int64 arrays"),
    (_I64, _I64[:1], "2 destinations but 1 payloads"),
    (np.array([1, 2], dtype=np.int64), _I64, "destination worker 2 out"),
], ids=["list", "float", "2-d", "short", "bad-dest"])
def test_insert_columns_refuses_bad_chunks(mode, dests, payloads, error):
    h = _spawn(Topology(1, 2, 1), SchemeKind.WW, 4, mode=mode,
               program=lambda wid: _BadColumns(wid, dests, payloads),
               record_items=True)
    m = h.await_quiescence(timeout_s=30)
    assert m.produced == m.delivered == 1
    assert h.workers[0].driver.error.startswith(error)


class _GroupSink(WorkerProgram):
    """Records each delivered item's row and the clock its sink starts at;
    on_items returns times(ctx, items), None when times is None."""

    def __init__(self, wid, times=None, batch=True):
        self.times = times
        self.seen = []
        if not batch:
            self.on_items = None

    def on_items(self, ctx, items):
        self.seen.append((ctx.time_ns(), [tuple(it) for it in items]))
        return None if self.times is None else self.times(ctx, items)

    def on_item(self, ctx, item):
        self.seen.append((ctx.time_ns(), [tuple(item)]))


def _drain_groups(groups, dns, record_items, **sink):
    """Queue groups, as (arrival, items), for worker 1 of a fresh sequential
    run with its clock at 1000, and drain them under _DELIVER_BUDGET.
    Returns what the drain changed."""
    topo = Topology(1, 1, 2)
    h = spawn(topo, create_aggregator("ww", topo, 4, 8), seed=0,
              program=lambda wid: _GroupSink(wid, **sink), deliver_ns=dns,
              record_items=record_items)
    w = h.workers[1]
    w.now = 1000
    w.queue.extend(groups)
    h._drain(w, w.queue, runtime._DELIVER_BUDGET)
    return (w.shard.pending.tolist(), w.now, w.delivered, w.dl_log,
            w.driver.seen, len(w.queue))


def _group(k, first_seq):
    """k items for worker 1: a list of Items and the same rows as a Batch."""
    items = [Item(1, 7 * i - 3, 20 * i, first_seq + 2 * i) for i in range(k)]
    return items, Batch(np.array([list(c) for c in zip(*items)],
                                 dtype=np.int64).reshape(4, k))


@pytest.mark.parametrize("dns", [0, 50])
@pytest.mark.parametrize("sizes", [(1, 3), (300, 2), (5, 1)])
@pytest.mark.parametrize("record_items", [False, True])
def test_drain_of_a_batch_group_matches_the_item_loop(dns, sizes, record_items):
    # the first group arrives before the clock, the second after it; a
    # group past _DELIVER_BUDGET is drained whole and ends the turn
    (l1, b1), (l2, b2) = _group(sizes[0], 0), _group(sizes[1], 1000)
    loop = _drain_groups([(900, l1), (4000, l2)], dns, record_items,
                         batch=False)
    for times in (None,
                  lambda ctx, items: [ctx.time_ns() + (i + 1) * dns + i
                                      for i in range(len(items))]):
        want = _drain_groups([(900, l1), (4000, l2)], dns, record_items,
                             times=times)
        got = _drain_groups([(900, b1), (4000, b2)], dns, record_items,
                            times=times)
        assert got == want
        if times is None:
            assert got[:4] == loop[:4]
    assert got[5] == (1 if sizes[0] > runtime._DELIVER_BUDGET else 0)


@pytest.mark.parametrize("times,error", [
    (lambda ctx, items: [ctx.time_ns()] * (len(items) + 1),
     "batch sink returned 4 delivery times for 3 items"),
    (lambda ctx, items: [1500.0] * len(items),
     "batch sink returned delivery time 1500.0 "),
    (lambda ctx, items: [2**63] * len(items),
     f"batch sink returned delivery time {2**63} "),
])
def test_drain_of_a_batch_group_checks_sink_times(times, error):
    with pytest.raises(UsageError, match=error):
        _drain_groups([(0, _group(3, 0)[1])], 50, False, times=times)


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_threaded_batch_sinks_deliver_each_item_once(kind):
    # ig's sink inserts and returns times, the histogram's and PHOLD's
    # return None; each item reaches its sink once and gives one sample
    topo = Topology(1, 2, 2)
    programs = (
        lambda wid: _IGWorker(wid, IGSpec(300, 64, seed=2), topo, 16),
        lambda wid: _HistWorker(wid, HistogramSpec(300, 64, seed=2), topo,
                                16),
        lambda wid: _PholdWorker(wid, PholdSpec(8, 2, 100.0, 1000.0, seed=2),
                                 topo, False),
    )
    for program in programs:
        h = _spawn(topo, kind, 8, mode="threaded", program=program,
                   record_items=True)
        m = h.await_quiescence(timeout_s=60)
        assert m.delivered > 0
        assert Counter(h.delivered_seqs()) == Counter(h.inserted_seqs())
        assert m.item_latency["count"] == m.delivered


def test_broadcast_task_and_phases():
    h = _spawn(Topology(1, 2, 2), SchemeKind.WW, 8, program=scatter(50, 4))
    h.run_phase(timeout_s=30)
    got = h.broadcast_task(lambda ctx: ctx.driver.received)
    assert len(got) == 4
    assert sum(got) == h.await_quiescence(timeout_s=30).delivered


# --------------------------------------------------- cyclic collector switch

class _CollectorProbe(Scatter):
    """Scatter that records whether the cyclic collector was on in step."""

    def __init__(self, wid, n, w, seen):
        super().__init__(wid, n, w)
        self.seen = seen

    def step(self, ctx):
        self.seen.add(gc.isenabled())
        return super().step(ctx)


class _Boom(Exception):
    pass


class _ExplodingStep(WorkerProgram):
    def step(self, ctx):
        raise _Boom()


@pytest.fixture
def collector_on():
    was_enabled = gc.isenabled()
    gc.enable()
    yield
    (gc.enable if was_enabled else gc.disable)()


@pytest.fixture
def splices(monkeypatch):
    """Records every gc.freeze and gc.unfreeze call, passing each through."""
    calls = []

    def recorded(name):
        real = getattr(gc, name)

        def call():
            calls.append(name)
            real()
        return call

    for name in ("freeze", "unfreeze"):
        monkeypatch.setattr(gc, name, recorded(name))
    return calls


def handoffs(paused_calls):
    """The splices that many paused calls make for a caller with the
    collector on: one freeze-unfreeze each, or none where objects are frozen
    already, which a splice would unfreeze."""
    if gc.get_freeze_count():
        return []
    return ["freeze", "unfreeze"] * paused_calls


def test_sequential_run_restores_collector(collector_on, splices):
    h = _spawn(Topology(1, 2, 2), SchemeKind.WW, 8, program=scatter(50, 4))
    h.run_phase(timeout_s=30)
    assert gc.isenabled()
    assert h.broadcast_task(lambda ctx: gc.isenabled()) == [False] * 4
    assert gc.isenabled()
    h.await_quiescence(timeout_s=30)
    assert gc.isenabled()
    assert splices == handoffs(3)


def test_collector_restored_when_driver_or_task_raises(collector_on,
                                                       splices):
    h = _spawn(Topology(1, 1, 2), SchemeKind.WW, 4,
               program=lambda wid: _ExplodingStep())
    with pytest.raises(_Boom):
        h.await_quiescence(timeout_s=30)
    assert gc.isenabled()
    assert splices == handoffs(1)

    def task(ctx):
        raise _Boom()

    h = _spawn(Topology(1, 1, 2), SchemeKind.WW, 4, program=scatter(10, 2))
    with pytest.raises(_Boom):
        h.broadcast_task(task)
    assert gc.isenabled()
    assert splices == handoffs(2)


def test_collector_left_off_for_a_caller_that_disabled_it(collector_on,
                                                          splices):
    gc.disable()
    h = _spawn(Topology(1, 2, 2), SchemeKind.WPS, 8, program=scatter(50, 4))
    h.run_phase(timeout_s=30)
    h.broadcast_task(lambda ctx: None)
    h.await_quiescence(timeout_s=30)
    assert not gc.isenabled()
    assert splices == []


@pytest.mark.parametrize("mode,inside", [("sequential", {False}),
                                         ("threaded", {True})])
def test_collector_state_inside_step(collector_on, splices, mode, inside):
    # the threaded engine never touches the process-wide switch
    seen = set()
    h = _spawn(Topology(1, 2, 2), SchemeKind.WW, 8, mode=mode,
               program=lambda wid: _CollectorProbe(wid, 50, 4, seen))
    h.await_quiescence(timeout_s=60)
    assert seen == inside
    assert gc.isenabled()
    assert splices == (handoffs(1) if mode == "sequential" else [])


def test_frozen_objects_stay_frozen(collector_on):
    h = _spawn(Topology(1, 2, 2), SchemeKind.WW, 8, program=scatter(50, 4))
    own = not gc.get_freeze_count()  # else the interpreter started with some
    if own:
        gc.freeze()
    try:
        n = gc.get_freeze_count()
        h.run_phase(timeout_s=30)
        assert gc.get_freeze_count() == n
        h.broadcast_task(lambda ctx: None)
        assert gc.get_freeze_count() == n
        h.await_quiescence(timeout_s=30)
        assert gc.get_freeze_count() == n
    finally:
        if own:
            gc.unfreeze()


def test_phased_sssp_starts_no_collection(collector_on, monkeypatch):
    """Survivors of a paused call reach the oldest generation unwalked.

    Without the hand-off, the collections the pause skipped start at the
    first allocations after run_phase and broadcast_task return, each
    walking the items the call left buffered; this run started five or six.
    """
    window = [False]
    starts = []
    seq = runtime.SequentialRun
    run_phase, await_quiescence = seq.run_phase, seq.await_quiescence

    def opening(self, timeout_s=None):
        window[0] = True
        return run_phase(self, timeout_s)

    def closing(self, timeout_s=None):
        try:
            return await_quiescence(self, timeout_s)
        finally:
            window[0] = False

    def probe(phase, info):
        if phase == "start" and window[0]:
            starts.append(info["generation"])

    monkeypatch.setattr(seq, "run_phase", opening)
    monkeypatch.setattr(seq, "await_quiescence", closing)
    spec = SSSPSpec(random_graph(3000, 8, seed=2), threshold_delta=50,
                    seed=2)
    gc.callbacks.append(probe)
    try:
        r = run_sssp(spec, scheme="ww", g=16, topo=Topology(2, 2, 4))
    finally:
        gc.callbacks.remove(probe)
    assert r.phases == 7
    if gc.get_freeze_count():
        assert starts  # the fallback: the skipped collections still run
    else:
        assert starts == []


def test_collector_pause_strands_no_per_item_garbage(collector_on):
    """A run's cyclic garbage is its own structure, not one cycle per item.

    The collector stays off around both runs: automatic collections untrack
    tuples of plain ints (such as channel keys) depending on allocation
    counts, which would make the count reflect collector heuristics rather
    than what the run left behind.
    """
    def left_behind(updates):
        gc.collect()
        run_histogram(HistogramSpec(updates, 1024, seed=3), scheme="wps",
                      g=64, topo=Topology(2, 2, 2))
        return gc.collect()

    gc.disable()
    left_behind(2000)  # first-use allocations happen here
    small = left_behind(2000)
    large = left_behind(8000)
    assert not gc.isenabled()
    assert small == large


# -------------------------------------------------------------- thread cap

def test_threaded_cap_refuses_before_starting_threads():
    topo = Topology(1, 1, MAX_THREADED_WORKERS + 1)
    agg = create_aggregator(SchemeKind.PP, topo, 64, 8)
    before = threading.active_count()
    with pytest.raises(UsageError, match="at most"):
        spawn(topo, agg, mode="threaded", program=lambda wid: _Spinner())
    assert threading.active_count() == before
    # refused before the run was wired: the aggregator is still unattached
    assert agg._transport is None


# ------------------------------------------------------------- run ledger

class _LedgerDriver(WorkerProgram):
    """Sends n requests to seeded random workers, by insert and insert_many
    in turn; every request is answered with one reply from the sink. Keeps
    its own count of inserts and of same-process inserts."""

    def __init__(self, wid, n, topo):
        self.wid = wid
        self.n = n
        self.w = topo.total_workers
        self.t = topo.workers_per_proc
        self.inserted = 0
        self.local = 0

    def _count(self, dest):
        self.inserted += 1
        self.local += dest // self.t == self.wid // self.t

    def step(self, ctx):
        if self.inserted >= self.n:
            return False
        dests = ctx.rng.integers(0, self.w, size=4).tolist()
        for d in dests:
            self._count(d)
        if self.inserted % 8:
            ctx.insert_many(dests, [(self.wid, True)] * len(dests))
        else:
            for d in dests:
                ctx.insert(d, (self.wid, True))
        return True

    def on_item(self, ctx, item):
        src, is_request = item[1]
        if is_request:
            self._count(src)
            ctx.insert(src, (self.wid, False))


@pytest.mark.parametrize("token", ["ww", "wps", "wsp", "pp", "none"])
@pytest.mark.parametrize("mode", ["sequential", "threaded"])
@pytest.mark.parametrize("timeout_ns", [None, 2000])
def test_run_ledger_matches_trace(token, mode, timeout_ns):
    # per-scope inserts and self_sends are derived from the messages; check
    # them against the trace and against the driver's own counts
    topo = Topology(1, 3, 2)
    kind, g_fixed = resolve_scheme(token)
    h = _spawn(topo, kind, g_fixed or 8, mode=mode, timeout_ns=timeout_ns,
               program=lambda wid: _LedgerDriver(wid, 120, topo), trace=True)
    m = h.await_quiescence(timeout_s=60)
    drivers = [wk.driver for wk in h.workers]
    trace = h.trace
    assert sum(m.messages_by_scope) == len(trace) == m.messages_sent > 0
    assert sum(m.inserted_by_scope) == sum(e["k"] for e in trace)
    per_origin = [0] * topo.total_processes
    for e in trace:
        per_origin[e["origin"]] += e["k"]
    t = topo.workers_per_proc
    if kind is SchemeKind.PP:  # one scope per process
        assert m.inserted_by_scope == per_origin
    else:  # one scope per worker
        assert [sum(m.inserted_by_scope[p * t:(p + 1) * t])
                for p in range(topo.total_processes)] == per_origin
    assert m.self_sends == sum(d.local for d in drivers) > 0
    assert m.produced == m.delivered == sum(d.inserted for d in drivers)


# ------------------------------------------------- threaded ack timeouts

def _joined(h):
    for wk in h.workers:
        wk.thread.join(timeout=10)
    return threading.active_count()


def test_threaded_task_timeout_stops_workers(monkeypatch):
    monkeypatch.setattr(runtime, "_ACK_TIMEOUT_S", 0.2)
    release = threading.Event()

    def task(ctx):
        if ctx.wid == 0:
            release.wait(30)
        return ctx.wid

    before = threading.active_count()
    h = _spawn(Topology(1, 1, 2), SchemeKind.WW, 4, mode="threaded",
               program=lambda wid: WorkerProgram())
    try:
        with pytest.raises(QuiescenceTimeout, match="task"):
            h.broadcast_task(task)
    finally:
        release.set()
    assert _joined(h) == before


def test_threaded_flush_round_error_stops_workers():
    # the coordinator runs the idle-flush round itself; a flush that raises
    # there stops every worker before the error reaches the caller
    topo = Topology(1, 2, 1)
    agg = create_aggregator(SchemeKind.WW, topo, 64, 8)

    def failing_flush(owner, now):
        raise RuntimeError("flush failed")

    agg.flush = failing_flush
    before = threading.active_count()
    h = spawn(topo, agg, mode="threaded",
              program=lambda wid: SingleStream(wid, 1))
    with pytest.raises(RuntimeError, match="flush failed"):
        h.await_quiescence(timeout_s=30)
    assert _joined(h) == before


@pytest.mark.parametrize("call", ["run_phase", "await_quiescence"])
@pytest.mark.parametrize("mode", ["sequential", "threaded"])
def test_flush_round_that_ships_nothing_ends_sequential_or_threaded(mode,
                                                                    call):
    # a flush that seals nothing leaves the item buffered; the round then
    # sends nothing, so either engine leaves its loop and the shared end
    # check raises, instead of flushing again until the wall budget runs
    # out, and no worker thread is left behind
    topo = Topology(1, 2, 1)
    agg = create_aggregator(SchemeKind.WW, topo, 64, 8)
    agg.flush = lambda owner, now: 0
    before = threading.active_count()
    h = spawn(topo, agg, mode=mode, program=lambda wid: SingleStream(wid, 1))
    with pytest.raises(InternalInvariantError,
                       match="run ended short of quiescence") as err:
        getattr(h, call)(timeout_s=10)
    assert "'buffered_by_owner': {0: 1}" in str(err.value)
    if mode == "threaded":
        assert _joined(h) == before


# ------------------------------------------------ threaded flush timeout

def test_threaded_park_ends_at_the_flush_deadline(monkeypatch):
    # a parked owner wakes by its earliest buffer deadline, not after the
    # 5 ms cap; read from the timeouts passed to its blocking gets
    tns = 300_000
    topo = Topology(1, 2, 1)
    agg = create_aggregator(SchemeKind.WW, topo, 1024, 8)
    agg.set_flush_timeout(tns)
    parks = []
    get = runtime._TQueue.get

    def recording_get(q, block=True, timeout=None):
        if threading.current_thread().name == "worker-0":
            parks.append((timeout, agg.owner_buffered(0)))
        return get(q, block, timeout)

    monkeypatch.setattr(runtime._TQueue, "get", recording_get)
    h = spawn(topo, agg, mode="threaded",
              program=lambda wid: SingleStream(wid, 0))
    for _ in range(20):
        # worker 0 buffers one item for worker 1, then parks
        h.broadcast_task(lambda ctx: ctx.wid or ctx.insert(1, None))
        time.sleep(0.002)
    assert h.await_quiescence(timeout_s=30).delivered == 20
    assert all(t <= runtime._PARK_S for t, _ in parks)
    waits = [t for t, buffered in parks if buffered]
    assert waits
    assert max(waits) <= tns * 1e-9


# ------------------------------------------------ threaded quiescence

class _SlowReplySink(WorkerProgram):
    """Worker 0 sends worker 3 one item; worker 3's sink inserts two
    replies for worker 0, 50 ms apart, and sets replied after the first."""

    def __init__(self, wid, replied=None):
        self.wid = wid
        self.sent = False
        self.replied = replied

    def step(self, ctx):
        if self.wid or self.sent:
            return False
        ctx.insert(3, None)
        self.sent = True
        return True

    def on_item(self, ctx, item):
        if self.wid == 3:
            ctx.insert(0, None)
            if self.replied is not None:
                self.replied.set()
            time.sleep(0.05)
            ctx.insert(0, None)


def test_threaded_slow_sink_holds_the_flush_round():
    # no flush round may start while a sink is still running, so both
    # replies leave in one message
    h = _spawn(Topology(1, 2, 2), SchemeKind.PP, 64, mode="threaded",
               program=_SlowReplySink, trace=True)
    h.await_quiescence(timeout_s=30)
    assert [e["k"] for e in h.trace] == [1, 2]


def test_threaded_flush_round_seals_every_buffer_first():
    # owner 2 flushes only once worker 3's sink has made its first reply,
    # or after 0.5 s; a round that sends only after its last seal keeps that
    # reply out of the round, so both replies still leave in one message
    topo = Topology(1, 2, 2)
    agg = create_aggregator(SchemeKind.PP, topo, 64, 8)
    replied = threading.Event()
    flush = agg.flush

    def late_flush(owner, now):
        if owner == 2:
            replied.wait(0.5)
        return flush(owner, now)

    agg.flush = late_flush
    h = spawn(topo, agg, mode="threaded", trace=True,
              program=lambda wid: _SlowReplySink(wid, replied))
    h.await_quiescence(timeout_s=30)
    assert [e["k"] for e in h.trace] == [1, 2]


@st.composite
def _topologies(draw):
    nodes = draw(st.integers(1, 3))
    ppn = draw(st.integers(1, 12 // nodes))
    wpp = draw(st.integers(1, 12 // (nodes * ppn)))
    return Topology(nodes, ppn, wpp)


@settings(max_examples=25, deadline=None, derandomize=True)
@given(topo=_topologies(),
       token=st.sampled_from(["ww", "wps", "wsp", "pp", "none"]),
       g=st.integers(1, 64),
       timeout_ns=st.one_of(st.none(), st.integers(1, 1_000_000)))
def test_threaded_matches_sequential(topo, token, g, timeout_ns):
    # inserts that do not depend on delivery order: both engines deliver
    # the same multiset and agree on every count and oracle
    kind, g_fixed = resolve_scheme(token)
    w = topo.total_workers
    modes = ("sequential", "threaded")
    runs = []
    for mode in modes:
        h = _spawn(topo, kind, g_fixed or g, mode=mode, timeout_ns=timeout_ns,
                   program=scatter(30, w), record_items=True)
        m = h.await_quiescence(timeout_s=60)
        seqs = sorted(h.delivered_seqs())
        assert seqs == sorted(h.inserted_seqs())
        runs.append((seqs, m.produced, m.delivered, m.self_sends))
    assert runs[0] == runs[1]

    kw = dict(scheme=token, g=g, topo=topo, flush_timeout_ns=timeout_ns)
    hist = HistogramSpec(50, 64, seed=7)
    tables = [run_histogram(hist, mode=mode, **kw) for mode in modes]
    for r in tables:
        assert np.array_equal(r.table, r.expected)
    sssp = SSSPSpec(random_graph(48, 4, seed=7), threshold_delta=100, seed=7)
    for mode in modes:
        r = run_sssp(sssp, mode=mode, **kw)
        assert np.array_equal(r.distances, r.expected)
