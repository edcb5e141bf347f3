"""End-to-end tests for the five benchmark drivers.

Each driver carries its own oracle, which every run_* call checks, so
these tests focus on the hand-checkable small cases plus cross-scheme
agreement on the correctness outputs.
"""
import heapq
import math
import threading
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from aggsim.benchmarks import ig
from aggsim.benchmarks.base import resolve_scheme
from aggsim.benchmarks.graphs import (INF, Graph, dijkstra, load_edge_list,
                                      random_graph)
from aggsim.benchmarks.histogram import (HistogramSpec, _HistWorker,
                                         run_histogram)
from aggsim.benchmarks.ig import (_RESP, IGSpec, _IGWorker, run_ig,
                                  table_value)
from aggsim.benchmarks.phold import (_POPS_PER_TURN, _TS_EPS, PholdSpec,
                                     _PholdWorker, recount_out_of_order,
                                     run_phold)
from aggsim.benchmarks.pingack import PingAckSpec, run_pingack, sweep_pingack
from aggsim.benchmarks.sssp import SSSPSpec, _SSSPWorker, run_sssp
from aggsim.errors import OracleMismatch, UsageError
from aggsim.metrics import summarize
from aggsim.runtime import TransportConfig, WorkerProgram, spawn
from aggsim.schemes import create_aggregator
from aggsim.topology import Batch, Item, Topology

SCHEMES = ("ww", "wps", "wsp", "pp")


# ---------------------------------------------------------------- histogram

def test_histogram_single_worker_all_local():
    r = run_histogram(HistogramSpec(updates_per_worker=10, table_size=16,
                                    seed=0),
                      scheme="ww", g=4, topo=Topology(1, 1, 1))
    assert r.metrics.messages_sent == 0
    assert r.metrics.self_sends == 10
    assert r.metrics.delivered == 10
    assert int(r.table.sum()) == 10
    assert r.extra()["oracle_ok"] is True


def test_histogram_table_identical_across_schemes_and_modes():
    topo = Topology(2, 2, 4)
    spec = HistogramSpec(updates_per_worker=20_000, table_size=4096, seed=9)
    digests = set()
    for scheme in SCHEMES:
        r = run_histogram(spec, scheme=scheme, g=1024, topo=topo)
        assert int(r.table.sum()) == 20_000 * topo.total_workers
        digests.add(r.extra()["table_digest"])
    r = run_histogram(spec, scheme="ww", g=1024, topo=topo, mode="threaded")
    digests.add(r.extra()["table_digest"])
    assert len(digests) == 1


@pytest.mark.parametrize("scheme,msgs", [
    # 8 workers; scope counts outside the source process: 6 dest workers,
    # 3 dest processes, 3 (src proc, dest proc) pairs shared by 2 workers
    ("ww", 8 * 6),
    ("wps", 8 * 3),
    ("wsp", 8 * 3),
    ("pp", 4 * 3),
])
def test_histogram_flush_starved_message_count_tracks_scope(scheme, msgs):
    # per-destination volume stays far below g: every message is flush-caused
    r = run_histogram(HistogramSpec(updates_per_worker=200, table_size=64,
                                    seed=5),
                      scheme=scheme, g=4096, topo=Topology(2, 2, 2))
    assert r.metrics.messages_sent == msgs
    assert r.metrics.full_messages == 0
    assert r.metrics.flush_messages == msgs


class _ScalarHistWorker(_HistWorker):
    """The histogram driver on the scalar path: an insert loop, and a
    per-item sink."""

    on_items = None

    def step(self, ctx):
        end = min(self.pos + self.chunk, len(self.bins))
        if self.pos >= end:
            return False
        for b in self.bins[self.pos:end]:
            ctx.insert(b % self.w, b)
        self.pos = end
        return True

    def on_item(self, ctx, item):
        self.counts[(item[1] - self.wid) // self.w] += 1


@pytest.mark.parametrize("scheme", SCHEMES + ("none",))
def test_histogram_batch_path_matches_scalar(scheme):
    # insert_many + on_items must leave every output of the scalar path
    # unchanged: result JSON (latencies, runtime), item seqs, message trace
    topo = Topology(2, 2, 3)
    spec = HistogramSpec(updates_per_worker=300, table_size=499, seed=4)
    kind, g_fixed = resolve_scheme(scheme)

    def run(driver, g, chunk, timeout_ns):
        agg = create_aggregator(kind, topo, g_fixed or g, 16)
        agg.set_flush_timeout(timeout_ns)
        h = spawn(topo, agg, program=lambda wid: driver(wid, spec, topo,
                                                         chunk),
                  seed=4, record_items=True, trace=True)
        m = h.await_quiescence(timeout_s=60)
        return (m.to_json(), h.inserted_seqs(), h.delivered_seqs(), h.trace,
                [wk.driver.counts for wk in h.workers])

    for g in (1, 5, 64) if g_fixed is None else (1,):
        for chunk in (1, 7, 256):
            for timeout_ns in (None, 700):
                batch = run(_HistWorker, g, chunk, timeout_ns)
                assert batch == run(_ScalarHistWorker, g, chunk, timeout_ns)


@pytest.mark.parametrize("scheme", SCHEMES)
def test_threaded_column_histogram_meets_oracle(scheme):
    # the threaded engine takes each column chunk as Items stamped with the
    # wall clock; run_histogram checks the table against its oracle
    topo = Topology(2, 2, 2)
    spec = HistogramSpec(updates_per_worker=3000, table_size=1024, seed=12)
    r = run_histogram(spec, scheme=scheme, g=64, topo=topo, mode="threaded")
    assert r.extra()["oracle_ok"] is True
    assert r.metrics.produced == r.metrics.delivered == 3000 * 8


def test_histogram_rejects_table_smaller_than_worker_count():
    with pytest.raises(UsageError):
        run_histogram(HistogramSpec(updates_per_worker=10, table_size=4,
                                    seed=0),
                      scheme="ww", g=4, topo=Topology(2, 2, 2))


# ----------------------------------------------------------------------- ig

def test_ig_remote_round_trip_pays_two_transport_legs():
    # seed chosen so both 1-request workers target the other process
    cfg = TransportConfig(alpha_ns=2000.0)
    r = run_ig(IGSpec(requests_per_worker=1, table_size=2, seed=1),
               scheme="ww", g=1, topo=Topology(1, 2, 1), cfg=cfg)
    assert r.metrics.self_sends == 0
    assert r.metrics.messages_sent == 4  # 2 requests + 2 responses
    assert r.rtt["count"] == 2
    assert r.rtt["p50_ns"] >= 2 * 2000
    assert r.unmatched == 0


def test_ig_self_only_sends_no_messages():
    r = run_ig(IGSpec(requests_per_worker=500, table_size=64, seed=1,
                      self_only=True),
               scheme="pp", g=64, topo=Topology(2, 2, 2))
    assert r.metrics.messages_sent == 0
    assert r.metrics.self_sends == r.metrics.produced == 8000
    assert r.matched == 500 * 8
    assert r.unmatched == 0


def test_ig_every_request_answered_across_schemes():
    topo = Topology(2, 2, 2)
    spec = IGSpec(requests_per_worker=2000, table_size=256, seed=4)
    for scheme in SCHEMES:
        r = run_ig(spec, scheme=scheme, g=256, topo=topo)
        assert r.matched == 2000 * topo.total_workers
        assert r.unmatched == 0
        assert r.rtt["count"] == r.matched


class _ScalarIGWorker(WorkerProgram):
    """The ig driver on the scalar path, with bookkeeping of its own: read
    the clock, then insert, one request at a time, with tuple payloads that
    name the requester; a per-item sink that answers each request with one
    insert and reads the clock for each response; send stamps in a dict."""

    def __init__(self, wid, spec, topo, chunk):
        self.wid = wid
        self.w = topo.total_workers
        self.spec = spec
        self.chunk = chunk
        self.issued = 0
        self.indices = None
        self.send_ts = {}
        self.rtts = []

    def on_start(self, ctx):
        # _IGWorker's draw, for a spec that is not self_only
        self.indices = ctx.rng.integers(
            0, self.spec.table_size,
            size=self.spec.requests_per_worker).tolist()

    def step(self, ctx):
        end = min(self.issued + self.chunk, len(self.indices))
        if self.issued >= end:
            return False
        for rid in range(self.issued, end):
            idx = self.indices[rid]
            self.send_ts[rid] = ctx.time_ns()
            ctx.insert(idx % self.w, ("req", self.wid, rid, idx))
        self.issued = end
        return True

    def on_item(self, ctx, item):
        p = item[1]
        if p[0] == "req":
            _, requester, rid, idx = p
            ctx.insert(requester, ("resp", rid, table_value(idx)))
        else:
            _, rid, value = p
            assert value == table_value(self.indices[rid])
            self.rtts.append(ctx.time_ns() - self.send_ts.pop(rid))


@pytest.mark.parametrize("scheme", SCHEMES + ("none",))
def test_ig_batch_step_matches_scalar(scheme):
    # requests through insert_columns and replies through the batch sink
    # leave every output of the scalar loops unchanged: result JSON, rtt
    # summary, item seqs, message trace and clocks
    topo = Topology(2, 2, 2)
    spec = IGSpec(requests_per_worker=200, table_size=97, seed=6)
    # the C7 acceptance cell's transport: alpha, beta, comm context, header
    c7 = TransportConfig(alpha_ns=2000, beta_ns_per_byte=0.5,
                         comm_cost_ns=2000, comm_enabled=True,
                         header_bytes=32)
    kind, g_fixed = resolve_scheme(scheme)

    def run(driver, cfg, chunk, timeout_ns):
        agg = create_aggregator(kind, topo, g_fixed or 16, 16)
        agg.set_flush_timeout(timeout_ns)
        h = spawn(topo, agg, cfg,
                  program=lambda wid: driver(wid, spec, topo, chunk),
                  seed=6, record_items=True, trace=True)
        m = h.await_quiescence(timeout_s=60)
        rtts = [r for wk in h.workers for r in wk.driver.rtts]
        assert len(rtts) == 200 * topo.total_workers
        return (m.to_json(), summarize(rtts), h.inserted_seqs(),
                h.delivered_seqs(), h.trace,
                [wk.now for wk in h.workers])

    for cfg in (c7, None):
        for timeout_ns in (None, 700):
            for chunk in (1, 7, 64):
                batch = run(_IGWorker, cfg, chunk, timeout_ns)
                assert batch == run(_ScalarIGWorker, cfg, chunk, timeout_ns)


@pytest.mark.parametrize("scheme", SCHEMES + ("none",))
def test_ig_threaded_answers_every_request(scheme):
    # requests and replies travel as int64 columns, as in the sequential
    # engine; send stamps are wall estimates, but every request is answered
    # once
    topo = Topology(2, 2, 2)
    spec = IGSpec(requests_per_worker=200, table_size=97, seed=6)
    r = run_ig(spec, scheme=scheme, g=16, topo=topo, mode="threaded",
               timeout_s=60)
    assert r.matched == 200 * topo.total_workers and r.unmatched == 0
    assert r.metrics.item_latency["count"] == r.metrics.delivered


class _GroupKinds(_IGWorker):
    """_IGWorker that counts the items its sink takes, and its calls, by
    group type, under a lock that the threaded engine's workers share."""

    kinds = Counter()
    calls = Counter()
    lock = threading.Lock()

    def on_items(self, ctx, items):
        with self.lock:
            self.kinds[type(items)] += len(items)
            self.calls[type(items)] += 1
        return super().on_items(ctx, items)


@pytest.mark.parametrize("timeout_ns,mode", [
    (None, "sequential"), (700, "sequential"), (None, "threaded"),
], ids=["None", "700", "threaded"])
@pytest.mark.parametrize("scheme", SCHEMES + ("none",))
def test_ig_remote_groups_reach_the_sink_as_batches(monkeypatch, scheme,
                                                    timeout_ns, mode):
    # every remote item stays on the column path, from the request chunk
    # through the buffers and the reply chunk, in both engines; only
    # same-process items arrive as tuples, one entry per chunk and
    # destination, so there are fewer such sink calls than same-process
    # items
    monkeypatch.setattr(ig, "_IGWorker", _GroupKinds)
    monkeypatch.setattr(_GroupKinds, "kinds", Counter())
    monkeypatch.setattr(_GroupKinds, "calls", Counter())
    topo = Topology(2, 2, 2)
    r = run_ig(IGSpec(requests_per_worker=300, table_size=97, seed=3),
               scheme=scheme, g=16, topo=topo, mode=mode,
               flush_timeout_ns=timeout_ns, timeout_s=60)
    assert r.matched == 300 * topo.total_workers and r.unmatched == 0
    m = r.metrics
    assert _GroupKinds.kinds == {Batch: m.delivered - m.self_sends,
                                 tuple: m.self_sends}
    assert m.delivered > 2 * m.self_sends
    assert _GroupKinds.calls[tuple] < m.self_sends


class _RepeatingIG(_IGWorker):
    """_IGWorker whose sink takes the first response of every group of
    type `kind` a second time."""

    kind = None

    def on_items(self, ctx, items):
        times = super().on_items(ctx, items)
        if type(items) is self.kind:
            first = next((i for i, it in enumerate(items)
                          if it[1] >= _RESP), None)
            if first is not None:
                super().on_items(ctx, items[first:first + 1])
        return times


class _StrayIG(_IGWorker):
    """_IGWorker whose sink, at its first call, takes a response to a
    request id it never issues, as a group of type `kind`."""

    kind = None

    def on_items(self, ctx, items):
        stray = Item(self.wid, _RESP | len(self.indices) << 31, 0, 0)
        if self.kind is Batch:
            stray = Batch(np.array([stray], dtype=np.int64).T)
        else:
            stray = (stray,)
        super().on_items(ctx, stray)


@pytest.mark.parametrize("kind", [Batch, tuple])
def test_ig_oracle_refuses_repeated_and_stray_responses(monkeypatch, kind):
    topo = Topology(2, 2, 2)
    spec = IGSpec(requests_per_worker=300, table_size=97, seed=3)
    monkeypatch.setattr(_RepeatingIG, "kind", kind)
    monkeypatch.setattr(ig, "_IGWorker", _RepeatingIG)
    with pytest.raises(OracleMismatch,
                       match="answered a request that was already answered"):
        run_ig(spec, scheme="pp", g=16, topo=topo)
    monkeypatch.setattr(_StrayIG, "kind", kind)
    monkeypatch.setattr(ig, "_IGWorker", _StrayIG)
    with pytest.raises(OracleMismatch, match="request 300, which it never "
                                             "issued"):
        run_ig(spec, scheme="pp", g=16, topo=topo)


@pytest.mark.parametrize("field", ["requests_per_worker", "table_size"])
def test_ig_spec_refuses_sizes_a_payload_cannot_hold(field):
    # ids and slot indices travel in 31 bits of an int64 payload
    sizes = dict(requests_per_worker=1, table_size=1)
    IGSpec(**{**sizes, field: 2**31})
    with pytest.raises(UsageError, match=f"{field} must be at most "
                                         f"{2**31}"):
        IGSpec(**{**sizes, field: 2**31 + 1})


# --------------------------------------------------------------------- sssp

PATH_EDGES = """\
# four-vertex path, unit weights
0 1 1

1 2 1
2 3 1
"""


def test_sssp_path_graph(tmp_path):
    p = tmp_path / "path.txt"
    p.write_text(PATH_EDGES)
    graph = load_edge_list(str(p))
    assert graph.n == 4
    r = run_sssp(SSSPSpec(graph=graph, source=0, threshold_delta=100, seed=0),
                 scheme="ww", g=8, topo=Topology(1, 1, 2))
    assert r.distances.tolist() == [0, 1, 2, 3]
    assert r.metrics.wasted_updates == 0


def test_sssp_unreachable_vertex_keeps_inf(tmp_path):
    p = tmp_path / "path5.txt"
    p.write_text(PATH_EDGES)
    graph = load_edge_list(str(p), n=5)  # vertex 4 has no edges at all
    r = run_sssp(SSSPSpec(graph=graph, source=0, threshold_delta=100, seed=0),
                 scheme="wps", g=8, topo=Topology(1, 1, 2))
    assert int(r.distances[4]) == INF
    assert r.extra()["vertices"] == 5
    assert r.extra()["reachable"] == 4


def test_sssp_random_graph_matches_dijkstra_all_schemes():
    graph = random_graph(300, 6, seed=42)
    expected = dijkstra(graph, 0)
    topo = Topology(2, 2, 2)
    spec = SSSPSpec(graph=graph, source=0, threshold_delta=1000, seed=42)
    for scheme in SCHEMES:
        r = run_sssp(spec, scheme=scheme, g=64, topo=topo)
        assert np.array_equal(r.distances, expected)
    r = run_sssp(spec, scheme="pp", g=64, topo=topo, mode="threaded")
    assert np.array_equal(r.distances, expected)


def test_sssp_rejects_out_of_range_source():
    graph = random_graph(16, 3, seed=0)
    with pytest.raises(UsageError):
        SSSPSpec(graph=graph, source=16, threshold_delta=100, seed=0) \
            .validate(Topology(1, 1, 2))


def test_sssp_refuses_weights_that_could_reach_inf():
    # 2**62 + 2**62 is past INF: the second vertex would read unreachable
    graph = Graph(3, [0, 1, 2, 2], [1, 2], [2**62, 2**62])
    with pytest.raises(UsageError, match="below INF"):
        SSSPSpec(graph=graph, source=0, threshold_delta=2**62)
    # the largest weight the bound admits: every distance stays below INF,
    # and a threshold beyond int64 still releases the deferred columns
    w = INF // 3
    graph = Graph(3, [0, 1, 2, 2], [1, 2], [w, w])
    r = run_sssp(SSSPSpec(graph=graph, source=0, threshold_delta=2**62),
                 scheme="ww", g=1, topo=Topology(1, 1, 3))
    assert r.distances.tolist() == [0, w, 2 * w]
    assert r.extra()["reachable"] == 3 and r.extra()["oracle_ok"]


class _HeapSSSPWorker(_SSSPWorker):
    """The SSSP driver with its deferred updates on a min-heap of
    (distance, tie, vertex): a push per deferred update, a pop per released
    one."""

    def __init__(self, wid, spec, topo):
        super().__init__(wid, spec, topo)
        self.deferred = []
        self._tie = 0

    def pending(self):
        return len(self.deferred)

    def _relax(self, ctx, v, d):
        g = self.spec.graph
        dests = []
        updates = []
        for i in range(g.indptr[v], g.indptr[v + 1]):
            u, du = int(g.heads[i]), d + int(g.weights[i])
            if du < self.threshold:
                dests.append(u // self.block_size)
                updates.append((u, du))
            else:
                heapq.heappush(self.deferred, (du, self._tie, u))
                self._tie += 1
        ctx.insert_many(dests, updates)

    def release(self, ctx, new_threshold):
        self.threshold = new_threshold
        heap = self.deferred
        found = len(heap)
        dests = []
        updates = []
        while heap and heap[0][0] < new_threshold:
            d, _, v = heapq.heappop(heap)
            dests.append(v // self.block_size)
            updates.append((v, d))
        ctx.insert_many(dests, updates)
        return found


class _ScalarSSSPWorker(_HeapSSSPWorker):
    """The SSSP driver on the scalar path: one ctx.insert or heap push per
    edge, in edge order, and one ctx.insert per released heap entry."""

    def _route(self, ctx, v, d):
        if d < self.threshold:
            ctx.insert(v // self.block_size, (v, d))
        else:
            heapq.heappush(self.deferred, (d, self._tie, v))
            self._tie += 1

    def _relax(self, ctx, v, d):
        g = self.spec.graph
        for i in range(g.indptr[v], g.indptr[v + 1]):
            self._route(ctx, int(g.heads[i]), d + int(g.weights[i]))

    def release(self, ctx, new_threshold):
        self.threshold = new_threshold
        heap = self.deferred
        found = len(heap)
        while heap and heap[0][0] < new_threshold:
            d, _, v = heapq.heappop(heap)
            ctx.insert(v // self.block_size, (v, d))
        return found


@pytest.mark.parametrize("scheme", SCHEMES + ("none",))
def test_sssp_batch_relax_matches_scalar(scheme):
    # relaxations and releases through insert_many leave every output of the
    # scalar loop unchanged: result JSON, distances, wasted updates, phases,
    # updates deferred so far per worker, item seqs and message trace
    topo = Topology(2, 2, 2)
    graph = random_graph(300, 6, seed=8)
    spec = SSSPSpec(graph=graph, source=0, threshold_delta=40, seed=8)
    expected = dijkstra(graph, 0)
    kind, g_fixed = resolve_scheme(scheme)

    def pending(ctx):
        return ctx.driver.pending()

    def run(driver, g, timeout_ns):
        # run_sssp's phase loop, on a run that records seqs and a trace
        agg = create_aggregator(kind, topo, g_fixed or g, 24)
        agg.set_flush_timeout(timeout_ns)
        h = spawn(topo, agg, program=lambda wid: driver(wid, spec, topo),
                  seed=8, record_items=True, trace=True)
        threshold = spec.threshold_delta
        phases = 0
        released = [0] * topo.total_workers
        while True:
            h.run_phase(timeout_s=60)
            phases += 1
            if not any(h.broadcast_task(pending)):
                break
            threshold += spec.threshold_delta
            found = h.broadcast_task(
                lambda ctx, thr=threshold: ctx.driver.release(ctx, thr))
            left = h.broadcast_task(pending)
            released = [r + f - k for r, f, k in zip(released, found, left)]
        m = h.await_quiescence(timeout_s=60)
        drivers = [wk.driver for wk in h.workers]
        m.wasted_updates = sum(d.wasted for d in drivers)
        dist = np.concatenate([d.dist for d in drivers])[:graph.n]
        assert np.array_equal(dist, expected)
        assert [d.pending() for d in drivers] == [0] * topo.total_workers
        return (m.to_json(), m.wasted_updates, phases, dist.tolist(),
                released, h.inserted_seqs(), h.delivered_seqs(), h.trace)

    for g in (3, 16) if g_fixed is None else (1,):
        for timeout_ns in (None, 3000):
            batch = run(_SSSPWorker, g, timeout_ns)
            assert batch[2] > 1  # the deferral was used
            assert batch == run(_ScalarSSSPWorker, g, timeout_ns)
    r = run_sssp(spec, scheme=scheme, g=16, topo=topo, mode="threaded",
                 timeout_s=60)
    assert np.array_equal(r.distances, expected)


class _ChunkCtx:
    """A ctx that records each insert_many chunk."""

    def __init__(self):
        self.chunks = []

    def insert_many(self, dests, payloads):
        self.chunks.append((list(dests), list(payloads)))


def _replay_sssp(driver, calls):
    """Each insert_many chunk, each release's count, the updates pending
    after each call and the updates deferred so far, for driver._relax and
    driver.release calls given as ("relax", v, d) and ("release", thr)."""
    ctx = _ChunkCtx()
    found = []
    pending = []
    released = 0
    for call in calls:
        if call[0] == "relax":
            driver._relax(ctx, *call[1:])
        else:
            found.append(driver.release(ctx, call[1]))
            released += found[-1] - driver.pending()
        pending.append(driver.pending())
    return ctx.chunks, found, pending, released + driver.pending()


def test_sssp_release_matches_a_heap():
    # vertex 0 defers equal distances (12 four times, 35 twice), a
    # distance at a later threshold (25) and ones several windows out (50,
    # 64); vertex 1 adds more between releases, one at the threshold
    heads = [5, 3, 7, 3, 11, 2, 9, 4, 8, 6, 10, 1, 4, 6, 2]
    weights = [35, 12, 12, 12, 50, 27, 35, 5, 19, 64, 25, 12, 3, 20, 9]
    indptr = [0, 12] + [15] * 11
    graph = Graph(12, indptr, heads, weights)
    spec = SSSPSpec(graph=graph, source=0, threshold_delta=10)
    topo = Topology(1, 1, 4)
    calls = [("relax", 0, 0), ("release", 25), ("relax", 1, 22),
             ("release", 26), ("release", 27), ("release", 40),
             ("release", 100), ("release", 110)]

    got = _replay_sssp(_SSSPWorker(0, spec, topo), calls)
    assert got == _replay_sssp(_HeapSSSPWorker(0, spec, topo), calls)
    chunks, found, pending, deferred = got
    # the first release cuts below 25, which is not a multiple of 10
    assert chunks[1] == ([1, 2, 1, 0, 2],
                         [(3, 12), (7, 12), (3, 12), (1, 12), (8, 19)])
    # 25s from both relaxations, in tie order; then an empty release
    assert chunks[3] == ([3, 1], [(10, 25), (4, 25)])
    assert chunks[4] == ([], [])
    assert found == [11, 9, 7, 7, 3, 0] and deferred == 14
    assert pending == [11, 6, 9, 7, 7, 3, 0, 0]


@settings(max_examples=200, deadline=None)
@given(seed=st.integers(0, 2**16), delta=st.integers(1, 7), data=st.data())
def test_sssp_release_order_matches_a_heap(seed, delta, data):
    # weights 1-3, so many deferred distances are equal; relaxations and
    # releases interleave, at thresholds that need not be multiples of delta
    graph = random_graph(12, 4, seed=seed, max_weight=3)
    spec = SSSPSpec(graph=graph, source=0, threshold_delta=delta)
    topo = Topology(1, 1, 4)
    threshold = delta
    calls = []
    for _ in range(data.draw(st.integers(1, 30), label="calls")):
        if data.draw(st.booleans(), label="release"):
            threshold += data.draw(st.integers(0, 9), label="step")
            calls.append(("release", threshold))
        else:
            calls.append(("relax", data.draw(st.integers(0, 11), label="v"),
                          data.draw(st.integers(0, threshold + 6),
                                    label="d")))
    calls.append(("release", threshold + 20))
    got = _replay_sssp(_SSSPWorker(0, spec, topo), calls)
    assert got == _replay_sssp(_HeapSSSPWorker(0, spec, topo), calls)
    assert got[2][-1] == 0  # the final release emptied the columns


@pytest.mark.parametrize("scheme", ("ww", "pp"))
def test_sssp_threaded_release_matches_dijkstra(scheme):
    # releases run numpy on the worker threads through broadcast_task;
    # weights 1-3 and a delta of 2 make many phases of equal distances
    graph = random_graph(400, 4, seed=5, max_weight=3)
    spec = SSSPSpec(graph=graph, source=0, threshold_delta=2, seed=5)
    r = run_sssp(spec, scheme=scheme, g=8, topo=Topology(2, 2, 2),
                 mode="threaded", timeout_s=60)
    assert np.array_equal(r.distances, dijkstra(graph, 0))
    assert r.phases > 4


# -------------------------------------------------------------------- phold

def test_phold_single_lp_is_one_ordered_chain():
    # one LP, one initial event: each arrival's timestamp exceeds its
    # parent's, so inversions are impossible
    r = run_phold(PholdSpec(lps_per_worker=1, initial_events_per_lp=1,
                            mean_increment=100.0, end_time=20_000.0, seed=3),
                  scheme="ww", g=4, topo=Topology(1, 1, 1), record_log=True)
    assert r.metrics.out_of_order_events == 0
    assert r.recheck == 0
    assert r.consumed == r.expected_floor + r.metrics.delivered
    assert r.consumed > 1


def test_phold_two_lp_golden_count():
    # golden from the first verified run; the recount is an independent
    # pass over the arrival log, so live counter and log must agree
    spec = PholdSpec(lps_per_worker=1, initial_events_per_lp=1,
                     mean_increment=100.0, end_time=5000.0, seed=11)
    r = run_phold(spec, scheme="ww", g=4, topo=Topology(1, 1, 2),
                  record_log=True)
    assert r.metrics.out_of_order_events == 62
    assert r.recheck == 62
    assert r.consumed == 112
    again = run_phold(spec, scheme="ww", g=4, topo=Topology(1, 1, 2),
                      record_log=True)
    assert again.metrics.out_of_order_events == 62


def test_phold_event_conservation_across_schemes():
    topo = Topology(2, 2, 2)
    spec = PholdSpec(lps_per_worker=16, initial_events_per_lp=2,
                     mean_increment=100.0, end_time=2000.0, seed=5)
    for scheme in SCHEMES:
        r = run_phold(spec, scheme=scheme, g=16, topo=topo, record_log=True)
        assert r.consumed == r.expected_floor + r.metrics.delivered
        assert r.recheck == r.metrics.out_of_order_events


class _ScalarPholdWorker(_PholdWorker):
    """The PHOLD driver on the scalar path: one ctx.insert per successor,
    right after its draws, and a per-item sink."""

    on_items = None

    def on_item(self, ctx, item):
        lp, ts = item[1]
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
        rng = ctx.rng
        for _ in range(min(_POPS_PER_TURN, len(pending))):
            ts, _, _lp = heapq.heappop(pending)
            self.consumed += 1
            nts = ts + max(float(rng.exponential(spec.mean_increment)),
                           _TS_EPS)
            if nts <= spec.end_time:
                target = int(rng.integers(0, self.total_lps))
                ctx.insert(target // self.lpw, (target, nts))
        return True


@pytest.mark.parametrize("scheme", SCHEMES + ("none",))
def test_phold_batch_step_matches_scalar(scheme):
    # steps through insert_many and deliveries through the batch sink leave
    # every output of the scalar loops unchanged: result JSON, recount,
    # consumed events, arrival logs, item seqs, channel arrivals and message
    # trace
    topo = Topology(2, 2, 2)
    spec = PholdSpec(lps_per_worker=16, initial_events_per_lp=4,
                     mean_increment=100.0, end_time=1500.0, seed=9)
    kind, g_fixed = resolve_scheme(scheme)

    def run(driver, g, timeout_ns):
        agg = create_aggregator(kind, topo, g_fixed or g, 16)
        agg.set_flush_timeout(timeout_ns)
        h = spawn(topo, agg,
                  program=lambda wid: driver(wid, spec, topo, True),
                  seed=9, record_items=True, trace=True)
        m = h.await_quiescence(timeout_s=60)
        drivers = [wk.driver for wk in h.workers]
        m.out_of_order_events = sum(d.ooo for d in drivers)
        logs = [d.log for d in drivers]
        consumed = sum(d.consumed for d in drivers)
        assert consumed == (topo.total_workers * spec.lps_per_worker
                            * spec.initial_events_per_lp + m.delivered)
        return (m.to_json(), recount_out_of_order(logs), consumed, logs,
                h.inserted_seqs(), h.delivered_seqs(), h.arrival_log,
                h.trace)

    for g in (3, 16) if g_fixed is None else (1,):
        for timeout_ns in (None, 3000):
            batch = run(_PholdWorker, g, timeout_ns)
            assert batch == run(_ScalarPholdWorker, g, timeout_ns)
    r = run_phold(spec, scheme=scheme, g=16, topo=topo, mode="threaded",
                  record_log=True, timeout_s=60)
    assert r.recheck == r.metrics.out_of_order_events


# ------------------------------------------------------------------ pingack

def test_pingack_minimal_pair():
    r = run_pingack(PingAckSpec(messages_per_worker=1, message_size=64,
                                workers_per_node=1, procs_per_node=(1,),
                                seed=0),
                    scheme="ww", ppn=1, g=1)
    assert r.payload_items == 1
    assert r.acks == 1
    assert r.metrics.messages_sent == 2  # the payload and the ack
    assert r.metrics.delivered == 2


def test_pingack_sweep_keeps_volume_constant():
    spec = PingAckSpec(messages_per_worker=100, message_size=32,
                       workers_per_node=2, procs_per_node=(1, 2), seed=0)
    rows = sweep_pingack(spec, scheme="wps", g=16)
    assert [r.ppn for r in rows] == [1, 2]
    assert len({r.payload_items for r in rows}) == 1
    for r in rows:
        assert r.acks == r.expected_acks == 2
        assert r.metrics.transport_cost_ns == 0  # comm disabled by default
        assert r.egress == []
        assert r.span_ns > 0 and r.throughput_per_ns is not None


@pytest.mark.parametrize("value", [math.nan, math.inf])
def test_specs_refuse_non_finite(value):
    with pytest.raises(UsageError, match="must be a positive integer"):
        HistogramSpec(value, 64)
    with pytest.raises(UsageError, match="mean_increment must be finite"):
        PholdSpec(lps_per_worker=1, mean_increment=value)
    with pytest.raises(UsageError, match="end_time must be finite"):
        PholdSpec(lps_per_worker=1, end_time=value)


def test_pingack_rejects_indivisible_ppn():
    with pytest.raises(UsageError):
        PingAckSpec(messages_per_worker=1, message_size=8,
                    workers_per_node=4, procs_per_node=(3,), seed=0)
    spec = PingAckSpec(messages_per_worker=1, message_size=8,
                       workers_per_node=4, procs_per_node=(2,), seed=0)
    with pytest.raises(UsageError):
        run_pingack(spec, scheme="ww", ppn=3, g=4)


@pytest.mark.parametrize("budget", [math.nan, math.inf, 0],
                         ids=["nan", "inf", "zero"])
@pytest.mark.parametrize("bench", ["histogram", "ig", "sssp", "phold",
                                   "pingack"])
def test_threaded_runner_refuses_budget_before_any_thread(bench, budget):
    # a runner drops its handle when settling raises, so a budget refused
    # after launch would leave the worker threads parked for good
    topo = Topology(1, 2, 2)
    runs = {
        "histogram": lambda **kw: run_histogram(
            HistogramSpec(20, 64, seed=1), topo=topo, **kw),
        "ig": lambda **kw: run_ig(
            IGSpec(requests_per_worker=5, table_size=16, seed=1), topo=topo,
            **kw),
        "sssp": lambda **kw: run_sssp(
            SSSPSpec(graph=random_graph(16, 2, seed=1), source=0,
                     threshold_delta=100, seed=0), topo=topo, **kw),
        "phold": lambda **kw: run_phold(
            PholdSpec(lps_per_worker=1, initial_events_per_lp=1,
                      end_time=1000.0, seed=1), topo=topo, **kw),
        "pingack": lambda **kw: run_pingack(
            PingAckSpec(messages_per_worker=5, message_size=8,
                        workers_per_node=2, procs_per_node=(1,), seed=0),
            ppn=1, **kw),
    }
    before = threading.active_count()
    with pytest.raises(UsageError, match="timeout_s must be None or a "
                                         "finite number of seconds > 0"):
        runs[bench](scheme="pp", g=4, mode="threaded", timeout_s=budget)
    assert threading.active_count() == before
