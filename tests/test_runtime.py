import gc
import math
import random
import sys
import threading
import time
from collections import Counter, defaultdict

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from aggsim import runtime, schemes
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
from aggsim.schemes import (CoalescedMessage, GroupingStats, SchemeKind,
                            create_aggregator)
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


class _LocalFanOut(WorkerProgram):
    """Every worker of one process inserts `chunks` chunks of the same 12
    items, to itself and two other workers of its process, as lists or
    column chunks; each sink call records the receiver and its items' seqs
    under a lock the threaded engine's workers share."""

    OFFSETS = (1, 2, 1, 0, 2, 2, 1, 0, 0, 2, 1, 2)  # dest - source, mod w
    lock = threading.Lock()

    def __init__(self, wid, w, chunks, columns, calls):
        self.dests = [(wid + d) % w for d in self.OFFSETS]
        self.chunks = chunks
        self.columns = columns
        self.calls = calls

    def step(self, ctx):
        if not self.chunks:
            return False
        self.chunks -= 1
        n = len(self.dests)
        if self.columns:
            ctx.insert_columns(np.array(self.dests, dtype=np.int64),
                               np.arange(n, dtype=np.int64))
        else:
            ctx.insert_many(self.dests, list(range(n)))
        return True

    def on_items(self, ctx, items):
        with self.lock:
            self.calls.append((ctx.wid, [it[3] for it in items]))


@pytest.mark.parametrize("columns", [False, True], ids=["lists", "columns"])
@pytest.mark.parametrize("mode", ["sequential", "threaded"])
def test_same_process_items_are_handed_over_per_destination(mode, columns):
    # both engines hand each chunk's items for one destination to its sink
    # in one call, in chunk order, however the chunk was inserted; threads
    # switch often, so a lost entry or busy count would hang or miscount
    w, chunks = 4, 20
    calls = []
    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        h = _spawn(Topology(1, 1, w), SchemeKind.WPS, 16, mode=mode,
                   program=lambda wid: _LocalFanOut(wid, w, chunks, columns,
                                                    calls))
        m = h.await_quiescence(timeout_s=30)
    finally:
        sys.setswitchinterval(old)
    assert m.messages_sent == 0
    assert m.produced == m.delivered == w * chunks * 12
    offsets = _LocalFanOut.OFFSETS
    assert len(calls) == w * chunks * len(set(offsets))
    for dest, seqs in calls:
        src = seqs[0] % w
        assert {q % w for q in seqs} == {src}
        # the seq of chunk j's item i from src is src + w*(12*j + i)
        j, i = zip(*(divmod((q - src) // w, 12) for q in seqs))
        assert len(set(j)) == 1
        assert list(i) == [k for k, d in enumerate(offsets)
                           if d == (dest - src) % w]


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
               program=scatter(200, 8), trace=True)
    h.await_quiescence(timeout_s=30)
    chans = defaultdict(list)
    for po, dp, arrival in h.arrival_log:
        chans[(po, dp)].append(arrival)
    assert chans
    for seq in chans.values():
        assert all(a <= b for a, b in zip(seq, seq[1:]))


@pytest.mark.parametrize("mode", ["sequential", "threaded"])
def test_arrival_log_holds_the_modelled_arrivals(mode):
    # both engines log the arrival they model: the departure plus alpha +
    # beta * bytes (within 1 ns of rounding), clamped monotone per channel
    cfg = TransportConfig(alpha_ns=1e6, beta_ns_per_byte=2.0,
                          header_bytes=32)
    h = _spawn(Topology(2, 2, 2), SchemeKind.WPS, 4, cfg=cfg, mode=mode,
               program=scatter(200, 8), trace=True)
    m = h.await_quiescence(timeout_s=60)
    assert m.messages_sent == len(h.trace) == len(h.arrival_log) > 0
    chans = defaultdict(list)
    for e, (po, dp, arrival) in zip(h.trace, h.arrival_log):
        assert (po, dp) == (e["origin"], e["dest_scope"])
        assert arrival >= e["sent_at"] + 1e6 + 2.0 * (e["k"] * 8 + 32) - 1
        chans[(po, dp)].append(arrival)
    for seq in chans.values():
        assert seq == sorted(seq)


def test_threaded_records_arrivals():
    h = _spawn(Topology(2, 1, 2), SchemeKind.WPS, 4, mode="threaded",
               program=scatter(100, 4), trace=True)
    m = h.await_quiescence(timeout_s=60)
    assert m.messages_sent > 0
    assert len(h.arrival_log) == m.messages_sent
    assert {(po, dp) for po, dp, _ in h.arrival_log} == {(0, 1), (1, 0)}


def _crossing_messages(kind, topo, n, seed):
    """n sealed messages between random workers of different processes,
    1-5 items each, with departures out of order on every channel."""
    rng = random.Random(seed)
    t = topo.workers_per_proc
    w = topo.total_workers
    out = []
    for _ in range(n):
        src = rng.randrange(w)
        dest = rng.choice([d for d in range(w) if d // t != src // t])
        sent_at = rng.randrange(3000)
        k = rng.randint(1, 5)
        if kind is SchemeKind.WW:
            dests = [dest] * k
            scope, grouped = dest, True
        else:
            dests = [dest // t * t + rng.randrange(t) for _ in range(k)]
            scope, grouped = dest // t, False
        items = [Item(d, None, sent_at, i) for i, d in enumerate(dests)]
        out.append(CoalescedMessage(src // t, scope, items, grouped,
                                    rng.choice(["full", "flush"]), sent_at,
                                    src))
    return out


@pytest.mark.parametrize("comm", [False, True], ids=["comm-off", "comm-on"])
@pytest.mark.parametrize("kind", [SchemeKind.WW, SchemeKind.WPS])
def test_transmit_list_equals_one_at_a_time(kind, comm):
    # a _transmit per list queues, logs and accounts exactly what one call
    # per message does, float costs to the last bit
    topo = Topology(2, 2, 2)
    cfg = TransportConfig(alpha_ns=3.3, beta_ns_per_byte=0.7,
                          comm_cost_ns=5.1, comm_enabled=comm,
                          header_bytes=13)

    def fresh():
        return _spawn(topo, kind, 64, cfg=cfg,
                      program=lambda wid: WorkerProgram(),
                      trace=True)

    def state(h):
        log = h._log
        return ([list(w.queue) for w in h.workers], h.arrival_log,
                h.comm_stats(), log.msgs_full, log.msgs_flush,
                log.items_by_scope, log.bytes_sent, log.trace,
                log.transport_cost_ns.hex(),
                h.aggregator.grouping_stats.touches)

    msgs = _crossing_messages(kind, topo, 60, seed=23)
    whole = fresh()
    whole._transmit(msgs[:7])
    whole._transmit(msgs[7:])
    single = fresh()
    for msg in msgs:
        single._transmit((msg,))
    assert state(whole) == state(single)
    # the FIFO clamp fired: some arrival is later than its own cost says,
    # the traced departure, then the comm context, then alpha + beta * bytes
    ready = defaultdict(float)
    raw = []
    for e in whole.trace:
        base = float(e["sent_at"])
        if comm:
            po = e["origin"]
            base = ready[po] = max(ready[po], base) + 5.1
        raw.append(int(base + (3.3 + 0.7 * (e["k"] * 8 + 13)) + 0.5))
    logged = [a for _, _, a in whole.arrival_log]
    assert any(a > r for a, r in zip(logged, raw))
    assert all(a >= r for a, r in zip(logged, raw))


def test_threaded_flush_round_transmits_every_message():
    # no buffer fills, so the idle-flush round seals every message and
    # transmits them as one list under _tlock
    topo = Topology(2, 1, 4)
    h = _spawn(topo, SchemeKind.WW, 1000, mode="threaded",
               program=scatter(40, 8), trace=True)
    lists = []
    transmit = h._transmit

    def recording(msgs):
        lists.append(len(msgs))
        transmit(msgs)
    h._transmit = recording
    h.run_phase(timeout_s=60)
    assert h._busy == 0
    m = h.await_quiescence(timeout_s=60)
    assert m.produced == m.delivered == 320
    assert max(lists) >= 8
    assert sum(lists) == m.messages_sent == len(h.arrival_log)


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


class _GroupKeeper(WorkerProgram):
    """Each worker inserts a list chunk and then a column chunk, each of two
    items for every other worker, round-robin; its batch sink keeps every
    group it is handed."""

    def __init__(self, wid, w):
        self.wid = wid
        self.w = w
        self.chunks = 2
        self.groups = []

    def step(self, ctx):
        if not self.chunks:
            return False
        n = 2 * (self.w - 1)
        dests = [(self.wid + 1 + i % (self.w - 1)) % self.w for i in range(n)]
        if self.chunks == 2:
            ctx.insert_many(dests, list(range(n)))
        else:
            ctx.insert_columns(np.array(dests, dtype=np.int64),
                               np.arange(n, dtype=np.int64))
        self.chunks -= 1
        return True

    def on_items(self, ctx, items):
        self.groups.append(items)


@pytest.mark.parametrize("kind", ALL_KINDS)
@pytest.mark.parametrize("mode", ["sequential", "threaded"])
def test_single_worker_message_is_queued_as_its_own_group(mode, kind,
                                                          monkeypatch):
    # a ww message's dest_scope is its one worker, so the transport queues
    # its own list or Batch whole and asks on_receive for no plan; wps, wsp
    # and pp messages are still planned by on_receive, and grouped once each.
    # With g=2 every ww buffer fills from one chunk, so list chunks seal
    # lists and column chunks seal Batches.
    topo = Topology(2, 2, 2)
    w = topo.total_workers
    agg = create_aggregator(kind, topo, 2, 8)
    assert agg.dest_is_worker == (kind is SchemeKind.WW)
    planned = []
    on_receive = agg.on_receive

    def counting(msg):
        planned.append(msg)
        return on_receive(msg)
    agg.on_receive = counting
    sent = []
    transmit = runtime._BaseRun._transmit

    def recording(run, msgs):
        sent.extend(msg[2] for msg in msgs)
        return transmit(run, msgs)
    monkeypatch.setattr(runtime._BaseRun, "_transmit", recording)
    h = spawn(topo, agg, mode=mode, program=lambda wid: _GroupKeeper(wid, w))
    m = h.await_quiescence(timeout_s=60)
    assert m.produced == m.delivered == 2 * 2 * (w - 1) * w
    assert len(sent) == m.messages_sent > 0
    groups = [g for wk in h.workers for g in wk.driver.groups
              if type(g) is not tuple]  # tuples are same-process entries
    if kind is SchemeKind.WW:
        assert not planned
        assert sorted(map(id, groups)) == sorted(map(id, sent))
        assert {type(g) for g in groups} == {list, Batch}
        assert agg.grouping_stats.touches == 0
    else:
        assert len(planned) == len(sent)
        assert sum(map(len, groups)) == sum(map(len, sent))
        assert agg.grouping_stats.touches == sum(
            grouping_cost(len(items), topo.workers_per_proc)
            for items in sent)


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


@pytest.mark.parametrize("value", [1.5, 32.0, "32", np.int64(32)],
                         ids=["float", "integral-float", "str", "numpy-int"])
def test_transport_config_refuses_non_int_header_bytes(value):
    # a float header would make every message's byte count a float
    with pytest.raises(UsageError, match="header_bytes must be an int"):
        TransportConfig(header_bytes=value)


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
                                     ("work_ns", None), ("seed", -1),
                                     ("seed", 1.5), ("seed", "3"),
                                     ("seed", True), ("work_ns", True),
                                     ("deliver_ns", True)])
def test_spawn_refuses_non_int_clock_steps(mode, arg, bad):
    # so is a seed that is not a non-negative int, before any context or
    # thread is built
    def program(wid):
        raise AssertionError("a context was built")
    with pytest.raises(UsageError, match=f"{arg} must be a non-negative "
                                         f"int, got {bad!r}"):
        _spawn(Topology(1, 2, 1), SchemeKind.WW, 4, mode=mode,
               program=program, **{arg: bad})


_CLOCK = 5  # worker 0's clock when it offers a refused chunk


class _BadStamp(WorkerProgram):
    """Worker 0 moves its clock to _CLOCK, offers worker 1 a chunk stamped
    `stamps`, checks that the refusal moved no clock, seq or buffer, then
    sends one item."""

    def __init__(self, wid, stamps):
        self.wid = wid
        self.stamps = stamps
        self.done = False

    def step(self, ctx):
        if self.wid or self.done:
            return False
        self.done = True
        ctx.advance(_CLOCK)
        now, seq = ctx.now, ctx.seq_next
        with pytest.raises(UsageError) as err:
            ctx.insert_many([1, 1], [None, None], stamps=self.stamps)
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
    ([-1000, 100], "insert stamp -1000 is below the clock, 5;"),
    ([4, 100], "insert stamp 4 is below the clock, 5;"),
    ([100, 99], "insert stamp 99 is below the stamp before it, 100;"),
], ids=["float", "none", "past-int64", "below-int64", "short", "negative",
        "below-clock", "backward"])
def test_insert_stamped_refuses_non_int64_stamps(mode, stamps, error):
    # checked before anything moves: each stamp an int64, and none below
    # the clock or the stamp before it; the threaded engine checks the
    # stamps it then replaces with wall times
    h = _spawn(Topology(1, 2, 1), SchemeKind.WW, 4, mode=mode,
               program=lambda wid: _BadStamp(wid, stamps), record_items=True)
    m = h.await_quiescence(timeout_s=30)
    assert m.produced == m.delivered == 1
    assert h.inserted_seqs() == h.delivered_seqs() == [0]
    assert h.workers[0].driver.error.startswith(error)


class _BadColumns(WorkerProgram):
    """Worker 0 moves its clock to _CLOCK, offers worker 1 the column chunk
    (dests, payloads, stamps), checks that the refusal moved no clock, seq
    or buffer, then sends one item."""

    def __init__(self, wid, dests, payloads, stamps=None):
        self.wid = wid
        self.chunk = (dests, payloads, stamps)
        self.done = False

    def step(self, ctx):
        if self.wid or self.done:
            return False
        self.done = True
        ctx.advance(_CLOCK)
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
@pytest.mark.parametrize("chunk,error", [
    (([1, 1], _I64), "insert_columns takes 1-d int64 arrays, got list"),
    ((_I64, _I64.astype(np.float64)), "insert_columns takes 1-d int64 arrays"),
    ((_I64.reshape(1, 2), _I64), "insert_columns takes 1-d int64 arrays"),
    ((_I64, _I64[:1]), "2 destinations but 1 payloads"),
    ((np.array([1, 2], dtype=np.int64), _I64), "destination worker 2 out"),
    ((_I64, _I64, [5, 6]), "insert_columns takes 1-d int64 arrays, got list"),
    ((_I64, _I64, _I64.astype(np.int32)),
     "insert_columns takes 1-d int64 arrays, got a 1-d int32 array"),
    ((_I64, _I64, _I64[:1]), "2 destinations but 1 stamps"),
    ((_I64, _I64, np.array([5, -1], dtype=np.int64)),
     "insert stamp -1 is below the stamp before it, 5;"),
    ((_I64, _I64, np.array([4, 100], dtype=np.int64)),
     "insert stamp 4 is below the clock, 5;"),
    ((_I64, _I64, np.array([100, 99], dtype=np.int64)),
     "insert stamp 99 is below the stamp before it, 100;"),
], ids=["list", "float", "2-d", "short", "bad-dest", "list-stamps",
        "int32-stamps", "short-stamps", "negative-stamps", "below-clock",
        "backward"])
def test_insert_columns_refuses_bad_chunks(mode, chunk, error):
    # checked before anything moves, as insert_many checks its stamps;
    # the threaded engine checks a stamp column it then replaces with wall
    # times
    h = _spawn(Topology(1, 2, 1), SchemeKind.WW, 4, mode=mode,
               program=lambda wid: _BadColumns(wid, *chunk),
               record_items=True)
    m = h.await_quiescence(timeout_s=30)
    assert m.produced == m.delivered == 1
    assert h.inserted_seqs() == h.delivered_seqs() == [0]
    assert h.workers[0].driver.error.startswith(error)


class _StampedColumns(WorkerProgram):
    """Worker 0 sends worker 1 one column chunk stamped `stamps` and keeps
    its clock after the insert; worker 1's batch sink keeps each item."""

    def __init__(self, wid, stamps):
        self.wid = wid
        self.stamps = stamps
        self.after = None
        self.got = []

    def step(self, ctx):
        if self.wid or self.after is not None:
            return False
        n = len(self.stamps)
        ctx.insert_columns(np.ones(n, dtype=np.int64),
                           np.arange(n, dtype=np.int64),
                           np.array(self.stamps, dtype=np.int64))
        self.after = ctx.now
        return True

    def on_items(self, ctx, items):
        self.got.extend(tuple(it) for it in items)


@pytest.mark.parametrize("mode", ["sequential", "threaded"])
def test_insert_columns_takes_a_stamp_column(mode):
    # the sequential engine stamps item i with stamps[i] and ends the clock
    # at the last one; the threaded engine stamps every item with one
    # wall-clock read, where the clock ends
    stamps = [10**15 + 300, 10**15 + 300, 10**15 + 900]
    h = _spawn(Topology(1, 2, 1), SchemeKind.WW, 4, mode=mode,
               program=lambda wid: _StampedColumns(wid, stamps),
               record_items=True)
    m = h.await_quiescence(timeout_s=30)
    assert m.produced == m.delivered == 3
    got = h.workers[1].driver.got
    assert [(d, p, s) for d, p, _, s in got] == [(1, 0, 0), (1, 1, 2),
                                                 (1, 2, 4)]
    sent = [c for _, _, c, _ in got]
    after = h.workers[0].driver.after
    if mode == "sequential":
        assert sent == stamps and after == stamps[-1]
    else:  # a wall stamp, which a run's first seconds keep below 10**15
        assert sent == [after] * 3 and after < stamps[0]


class _OneStamped(WorkerProgram):
    """Worker 0 sends worker 1 one item stamped `stamp`, as a list chunk
    (stamped insert_many) or a column chunk; worker 1's batch sink returns
    None."""

    def __init__(self, wid, stamp, columns):
        self.wid = wid
        self.stamp = stamp
        self.columns = columns
        self.done = False

    def step(self, ctx):
        if self.wid or self.done:
            return False
        self.done = True
        if self.columns:
            one = np.ones(1, dtype=np.int64)
            ctx.insert_columns(one, one, one * self.stamp)
        else:
            ctx.insert_many([1], [1], stamps=[self.stamp])
        return True

    def on_items(self, ctx, items):
        return None


@pytest.mark.parametrize("columns", [False, True], ids=["list", "batch"])
def test_message_never_arrives_before_it_departs(columns):
    # 2**53 + 1 rounds through a float cost to 2**53; the arrival is
    # clamped to the integer departure, so with free delivery the item's
    # one latency sample is 0, not -1
    stamp = 2**53 + 1
    h = _spawn(Topology(1, 2, 1), SchemeKind.WW, 1, deliver_ns=0,
               trace=True,
               program=lambda wid: _OneStamped(wid, stamp, columns))
    m = h.await_quiescence(timeout_s=30)
    assert [e["sent_at"] for e in h.trace] == [stamp]
    assert h.arrival_log == [(0, 1, stamp)]
    assert h.workers[1].now == stamp
    assert m.delivered == 1 and m.item_latency["max_ns"] == 0


@pytest.mark.parametrize("columns", [False, True], ids=["list", "batch"])
def test_arrival_past_int64_is_refused_before_it_is_queued(columns):
    # 2**63 - 10 plus a 1000 ns network cost arrives past int64: the
    # transport refuses the message, naming its departure and cost, before
    # the receiver's clock or queue moves
    stamp = 2**63 - 10
    h = _spawn(Topology(2, 1, 1), SchemeKind.WW, 1, deliver_ns=0,
               cfg=TransportConfig(alpha_ns=1000.0),
               program=lambda wid: _OneStamped(wid, stamp, columns))
    with pytest.raises(UsageError, match=f"a message sent at {stamp} ns "
                                         "with a network cost of 1000.0 ns "
                                         f"arrives at {2**63} ns"):
        h.run_phase(timeout_s=30)
    assert h.workers[1].now == 0 and not h.workers[1].queue


class _RefusedOneStamped(_OneStamped):
    """_OneStamped whose sender catches the UsageError its insert raises
    and keeps it in refused."""

    def __init__(self, wid, stamp, columns):
        super().__init__(wid, stamp, columns)
        self.refused = []

    def step(self, ctx):
        try:
            return super().step(ctx)
        except UsageError as exc:
            self.refused.append(exc)
            return True


@pytest.mark.parametrize("columns", [False, True], ids=["list", "batch"])
def test_refused_arrival_leaves_no_message_in_the_log(columns):
    # the transport refuses the message before it records any of it, so a
    # sender that catches the refusal still reaches quiescence with no
    # message, self-send, trace entry or arrival logged
    h = _spawn(Topology(2, 1, 1), SchemeKind.WW, 1, deliver_ns=0,
               cfg=TransportConfig(alpha_ns=1000.0), trace=True,
               program=lambda wid: _RefusedOneStamped(wid, 2**63 - 10,
                                                      columns))
    m = h.await_quiescence(timeout_s=30)
    assert len(h.workers[0].driver.refused) == 1
    assert (m.messages_sent, m.self_sends) == (0, 0)
    assert m.produced == m.delivered == 0
    assert h.trace == [] and h.arrival_log == []


class _TwoSenders(WorkerProgram):
    """Worker 0 sends worker 2 one item stamped `stamp`, worker 1 sends
    worker 3 one item stamped on its clock; every worker records what it
    receives in got."""

    def __init__(self, wid, stamp):
        self.wid = wid
        self.stamp = stamp
        self.done = False
        self.got = []

    def step(self, ctx):
        if self.wid > 1 or self.done:
            return False
        self.done = True
        if self.wid:
            ctx.insert(3, "ordinary")
        else:
            ctx.insert_many([2], ["late"], stamps=[self.stamp])
        return True

    def on_item(self, ctx, item):
        self.got.append(item[1])


def test_refused_arrival_queues_the_rounds_other_messages():
    # the idle-flush round seals worker 0's buffer, whose arrival is past
    # int64, and worker 1's; the refusal is raised once worker 1's message
    # is queued, so worker 3 still receives its item, and the run ends
    # short of quiescence only for worker 2's
    h = _spawn(Topology(2, 1, 2), SchemeKind.WW, 8,
               cfg=TransportConfig(alpha_ns=1000.0),
               program=lambda wid: _TwoSenders(wid, 2**63 - 10))
    with pytest.raises(UsageError, match="arrival times must fit in int64"):
        h.run_phase(timeout_s=30)
    assert len(h.workers[3].queue) == 1
    with pytest.raises(InternalInvariantError,
                       match="run ended short of quiescence"):
        h.run_phase(timeout_s=30)
    assert [w.driver.got for w in h.workers] == [[], [], [], ["ordinary"]]
    assert (h.workers[3].delivered, h.workers[2].delivered) == (1, 0)


class _Recorder(WorkerProgram):
    """Sends nothing; records the items it receives in got."""

    def __init__(self, wid):
        self.got = []

    def on_item(self, ctx, item):
        self.got.append(item)


def test_threaded_refused_arrival_keeps_the_busy_count_exact():
    # a transmitted list whose first message is refused still counts the
    # entries it queued for the others: worker 3 takes its group, parks,
    # and the run settles at once, short of quiescence only because no
    # worker produced the item; an uncounted entry would leave the count
    # at -1, and the run would wait out its budget
    h = _spawn(Topology(2, 1, 2), SchemeKind.WW, 8, mode="threaded",
               cfg=TransportConfig(alpha_ns=1000.0), program=_Recorder)
    h.run_phase(timeout_s=30)
    late = CoalescedMessage(0, 2, [Item(2, None, 2**63 - 10, 0)], True,
                            "flush", 2**63 - 10, 0)
    ordinary = CoalescedMessage(0, 3, [Item(3, None, 5, 1)], True, "flush",
                                5, 1)
    with pytest.raises(UsageError, match="arrival times must fit in int64"):
        h._transmit([late, ordinary])
    deadline = time.monotonic() + 10
    while not h.workers[3].delivered and time.monotonic() < deadline:
        time.sleep(0.001)
    time.sleep(0.05)  # worker 3 parks again
    t0 = time.monotonic()
    with pytest.raises(InternalInvariantError,
                       match="run ended short of quiescence"):
        h.await_quiescence(timeout_s=10)
    assert time.monotonic() - t0 < 5
    assert [w.driver.got for w in h.workers] == [
        [], [], [], [Item(3, None, 5, 1)]]


@pytest.mark.parametrize("insert", ["many", "columns"])
def test_clock_and_insert_stamps_stay_within_int64(insert):
    # a clock or stamp of 2**63 or more is refused before the clock or the
    # seq moves: unchecked, the third stamp of the chunk wraps to a
    # negative int64, and a clock at 2**63 makes numpy raise OverflowError
    h = _spawn(Topology(1, 2, 1), SchemeKind.WW, 4, work_ns=100,
               program=lambda wid: WorkerProgram())
    w = h.workers[0]
    with pytest.raises(UsageError, match="cannot advance a clock at 0 ns"):
        w.advance(2**63)
    w.advance(2**63 - 250)
    with pytest.raises(UsageError, match=f"insert stamp {2**63 + 50} is not"):
        if insert == "many":
            w.insert_many([1, 1, 1], [0, 1, 2])
        else:
            w.insert_columns(np.ones(3, dtype=np.int64),
                             np.arange(3, dtype=np.int64))
    assert (w.now, w.seq_next, w.produced) == (2**63 - 250, 0, 0)
    assert total_buffered(h.aggregator) == 0
    w.advance(249)  # the clock's last int64 value
    with pytest.raises(UsageError, match="it stays a count within int64"):
        w.advance(1)
    assert w.now == 2**63 - 1


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
    h._drain(w, w.queue)
    return (w.shard.pending.tolist(), w.now, w.delivered, w.dl_log,
            w.driver.seen, len(w.queue))


def _group(k, first_seq, gap=20):
    """k items for worker 1, stamped gap ns apart from 0: a list of Items
    and the same rows as a Batch."""
    items = [Item(1, 7 * i - 3, gap * i, first_seq + 2 * i)
             for i in range(k)]
    return items, Batch(np.array([list(c) for c in zip(*items)],
                                 dtype=np.int64).reshape(4, k))


@pytest.mark.parametrize("dns", [0, 50])
@pytest.mark.parametrize("sizes", [(1, 3), (300, 2), (5, 1)])
@pytest.mark.parametrize("record_items", [False, True])
def test_drain_of_a_batch_group_matches_the_item_loop(dns, sizes, record_items):
    # the first group arrives before the clock, the second after it, each
    # stamped no later than its arrival; a group past _DELIVER_BUDGET is
    # drained whole and ends the turn
    (l1, b1), (l2, b2) = _group(sizes[0], 0, 3), _group(sizes[1], 1000, 3)
    loop = _drain_groups([(900, l1), (4000, l2)], dns, record_items,
                         batch=False)
    def listed(ctx, items):
        return [ctx.time_ns() + (i + 1) * dns + i for i in range(len(items))]

    for times in (None, listed,
                  lambda ctx, items: np.array(listed(ctx, items))):
        want = _drain_groups([(900, l1), (4000, l2)], dns, record_items,
                             times=times)
        got = _drain_groups([(900, b1), (4000, b2)], dns, record_items,
                            times=times)
        assert got == want
        if times is None:
            assert got[:4] == loop[:4]
        else:  # an int64 array of times reads as the list of them
            assert got == _drain_groups([(900, b1), (4000, b2)], dns,
                                        record_items, times=listed)
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


@pytest.mark.parametrize("times,error", [
    (lambda ctx, items: [ctx.time_ns()] * (len(items) + 1),
     "batch sink returned 4 delivery times for 3 items"),
    (lambda ctx, items: [-2**63] * len(items),
     f"batch sink returned delivery time {-2**63} for an item sent at 20;"),
], ids=["miscounted", "sample-past-int64"])
def test_drain_of_a_batch_group_checks_sink_arrays(times, error):
    # an int64 array of times is refused as the list of them is
    for sink in (times, lambda ctx, items: np.array(times(ctx, items),
                                                     dtype=np.int64)):
        with pytest.raises(UsageError, match=error):
            _drain_groups([(0, _group(3, 0)[1])], 50, False, times=sink)


@pytest.mark.parametrize("array", [
    np.array([1500.0, 1600.0, 1700.0]),
    np.array([1500, 1600, 1700], dtype=np.int32),
    np.array([[1500, 1600, 1700]], dtype=np.int64),
], ids=["float64", "int32", "2-d"])
def test_drain_refuses_sink_arrays_but_1d_int64(array):
    dims = f"{array.ndim}-d {array.dtype}"
    with pytest.raises(UsageError, match=f"batch sink returned a {dims} "
                                         "array of delivery times"):
        _drain_groups([(0, _group(3, 0)[1])], 50, False,
                      times=lambda ctx, items: array)


class _LocalChunks(WorkerProgram):
    """Worker 0 inserts each of chunks, a list of stamp lists, as one
    stamped chunk for worker 1, whose clock starts at start. Worker 1's
    sink is on_item, or on_items returning None or each item's delivery
    time by the same-process rule, and records each call's items."""

    def __init__(self, wid, chunks, start, sink):
        self.wid = wid
        self.chunks = list(chunks)
        self.start = start
        self.calls = []
        if sink == "on_item":
            self.on_items = None
        self.returns_times = sink == "times"

    def on_start(self, ctx):
        if self.wid == 1:
            ctx.advance(self.start)

    def step(self, ctx):
        if self.wid or not self.chunks:
            return False
        stamps = self.chunks.pop(0)
        ctx.insert_many([1] * len(stamps), list(range(len(stamps))),
                        stamps=stamps)
        return True

    def on_items(self, ctx, items):
        self.calls.append([it[2] for it in items])
        if self.returns_times:
            return _rule_times(ctx.time_ns(), ctx.deliver_ns,
                               [it[2] for it in items])
        return None

    def on_item(self, ctx, item):
        self.calls.append([item[2]])


def _rule_times(t, dns, stamps):
    """t_i = max(t_{i-1}, c_i) + dns from t_{-1} = t."""
    out = []
    for c in stamps:
        t = max(t, c) + dns
        out.append(t)
    return out


@pytest.mark.parametrize("sink", ["on_item", "none", "times"])
@pytest.mark.parametrize("dns", [0, 50])
def test_same_process_entry_keeps_each_items_clock(sink, dns):
    # one chunk's same-process items reach their destination as one entry,
    # and each still arrives at its own stamp: the stamps never go back, and
    # they jump past the receiver's clock (2000, 5000, and 2010 and 2100
    # when deliver_ns is 0) and fall behind it (500, 700, the second 2000)
    stamps = [500, 700, 2000, 2000, 2010, 2100, 5000, 5000]
    topo = Topology(1, 1, 2)
    h = _spawn(topo, SchemeKind.WW, 4, deliver_ns=dns, record_items=True,
               program=lambda wid: _LocalChunks(wid, [stamps], 1000, sink))
    h.run_phase(timeout_s=30)
    w = h.workers[1]
    want = _rule_times(1000, dns, stamps)
    assert w.shard.pending.tolist() == [t - c for t, c in zip(want, stamps)]
    assert w.now == want[-1] and w.delivered == len(stamps)
    assert w.dl_log == list(range(0, 2 * len(stamps), 2))
    calls = w.driver.calls
    assert calls == ([[c] for c in stamps] if sink == "on_item"
                     else [stamps])
    # the same items as two message groups, a list and a Batch, each
    # stamped no later than its arrival, go by the same rule from the later
    # of the clock and the arrival: every _drain path against _rule_times
    items, batch = _group(len(stamps), 0)
    items = [it._replace(created_at=c) for it, c in zip(items, stamps)]
    batch.created_at[:] = stamps
    want = _rule_times(1000, dns, stamps[:2])
    want += _rule_times(max(want[-1], 5000), dns, stamps[2:])
    kw = ({"batch": False} if sink == "on_item" else
          {"times": None} if sink == "none" else
          {"times": lambda ctx, its: _rule_times(
              ctx.time_ns(), ctx.deliver_ns, [it[2] for it in its])})
    for group in (items, batch):
        got = _drain_groups([(700, group[:2]), (5000, group[2:])], dns, True,
                            **kw)
        assert got[0] == [t - c for t, c in zip(want, stamps)]
        assert got[1:4] == (want[-1], len(stamps), w.dl_log)


@pytest.mark.parametrize("sink", ["on_item", "none", "times"])
def test_same_process_sample_past_int64_is_refused(sink):
    # the second item is delivered at 2**63 + 40, past int64, which every
    # sink kind refuses before the clock takes it
    topo = Topology(1, 1, 2)
    h = _spawn(topo, SchemeKind.WW, 4, deliver_ns=50,
               program=lambda wid: _LocalChunks(wid, [[7, 2**63 - 10]], 1000,
                                                sink))
    with pytest.raises(UsageError, match=f"delivery time {2**63 + 40} for an "
                                         f"item sent at {2**63 - 10}"):
        h.run_phase(timeout_s=30)
    assert h.workers[1].now < 2**63


@pytest.mark.parametrize("sink", ["on_item", "none"])
def test_same_process_entry_is_cut_at_the_budget(sink):
    # a run past _DELIVER_BUDGET delivers the budget in one turn; its rest
    # goes back to the front, before the next chunk's entry, in order
    budget = runtime._DELIVER_BUDGET
    first = list(range(100, 100 + budget + 44))
    second = [first[-1]] * 10
    topo = Topology(1, 1, 2)
    h = _spawn(topo, SchemeKind.WW, 4, deliver_ns=50, record_items=True,
               program=lambda wid: _LocalChunks(wid, [first, second], 0,
                                                sink))
    h._round([0])
    h._round([0])
    w = h.workers[1]
    assert [len(items) for _, items in w.queue] == [budget + 44, 10]
    h._round([1])
    assert w.delivered == budget and w.now == 100 + 50 * budget
    assert [len(items) for _, items in w.queue] == [44, 10]
    assert [it[2] for it in w.queue[0][1]] == first[budget:]
    h._round([1])
    assert not w.queue and w.delivered == budget + 54
    stamps = first + second
    assert w.dl_log == list(range(0, 2 * len(stamps), 2))
    assert w.shard.pending.tolist() == [
        t - c for t, c in zip(_rule_times(0, 50, stamps), stamps)]
    assert sum(map(len, w.driver.calls)) == len(stamps)
    if sink == "none":
        assert list(map(len, w.driver.calls)) == [budget, 44, 10]


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


def test_threaded_task_error_is_raised_at_once(monkeypatch):
    # the failing worker wakes the waiting caller, which raises its error
    # without waiting out the acknowledgement timeout
    monkeypatch.setattr(runtime, "_ACK_TIMEOUT_S", 5)

    def task(ctx):
        if ctx.wid == 1:
            raise _Boom()
        return ctx.wid

    before = threading.active_count()
    h = _spawn(Topology(1, 1, 2), SchemeKind.WW, 4, mode="threaded",
               program=lambda wid: WorkerProgram())
    t0 = time.monotonic()
    with pytest.raises(_Boom):
        h.broadcast_task(task)
    assert time.monotonic() - t0 < 2
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


@pytest.mark.parametrize("stop", ["quiesced", "task_error", "timeout"])
def test_stopped_threaded_run_refuses_further_calls(monkeypatch, stop):
    # once await_quiescence, a worker error or a timeout stopped the run,
    # its worker threads are gone: each call is refused at once instead of
    # waiting out its budget or the ack timeout
    monkeypatch.setattr(runtime, "_ACK_TIMEOUT_S", 1)

    def task(ctx):
        raise _Boom()

    before = threading.active_count()
    h = _spawn(Topology(1, 1, 2), SchemeKind.WW, 4, mode="threaded",
               program=lambda wid: (_Spinner() if stop == "timeout"
                                    else WorkerProgram()))
    if stop == "quiesced":
        h.await_quiescence(timeout_s=30)
    elif stop == "task_error":
        with pytest.raises(_Boom):
            h.broadcast_task(task)
    else:
        with pytest.raises(QuiescenceTimeout):
            h.run_phase(timeout_s=0.2)
    assert _joined(h) == before
    for call in (h.run_phase, h.await_quiescence,
                 lambda timeout_s: h.broadcast_task(lambda ctx: ctx.wid)):
        t0 = time.monotonic()
        with pytest.raises(UsageError, match="threaded run has stopped"):
            call(timeout_s=1)
        assert time.monotonic() - t0 < 0.5


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

class _Chatter(WorkerProgram):
    """Each worker sends n chunks of 1-3 items to random workers, on its
    own rng, and counts what it receives."""

    def __init__(self, wid, n, w):
        self.n = n
        self.w = w
        self.received = 0

    def step(self, ctx):
        if not self.n:
            return False
        self.n -= 1
        k = int(ctx.rng.integers(1, 4))
        ctx.insert_many(ctx.rng.integers(self.w, size=k).tolist(), [None] * k)
        return True

    def on_item(self, ctx, item):
        self.received += 1


def test_threaded_pp_timeout_flushes_due_buffers_only():
    # four workers share each pp row, threads switch every 10 us, and a
    # 50 us timeout flushes buffers mid-run: no timeout poll seals a buffer
    # before its deadline, every item is delivered, and the run settles,
    # so no stale deadline floor hides a buffer for good
    tns = 50_000
    topo = Topology(1, 2, 4)
    w = topo.total_workers
    agg = create_aggregator(SchemeKind.PP, topo, 1024, 8)
    agg.set_flush_timeout(tns)
    polling = threading.local()
    early = []
    expired = []
    flush_expired, seal = agg.flush_expired, agg._seal

    def checked_flush_expired(source, now):
        polling.now = now
        try:
            return flush_expired(source, now)
        finally:
            polling.now = None

    def checked_seal(row, source, cols, cause, now, out):
        # under the row lock: the heads are the ones the poll decided on
        if getattr(polling, "now", None) is not None:
            heads = [schemes._head(row[col]) for col in cols]
            expired.extend(heads)
            early.extend(h for h in heads if h + tns > now)
        return seal(row, source, cols, cause, now, out)

    agg.flush_expired = checked_flush_expired
    agg._seal = checked_seal
    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        h = spawn(topo, agg, mode="threaded",
                  program=lambda wid: _Chatter(wid, 300, w))
        m = h.await_quiescence(timeout_s=60)
    finally:
        sys.setswitchinterval(old)
    assert early == []
    assert expired  # the timeout fired mid-run
    assert m.produced == m.delivered == sum(
        wk.driver.received for wk in h.workers)
    assert total_buffered(agg) == 0


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
