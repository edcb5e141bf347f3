"""End-to-end tests for the five benchmark drivers.

Each driver carries its own oracle, which every run_* call checks, so
these tests focus on the hand-checkable small cases plus cross-scheme
agreement on the correctness outputs.
"""
import heapq
import math
import threading

import numpy as np
import pytest

from aggsim.benchmarks.base import resolve_scheme
from aggsim.benchmarks.graphs import (INF, dijkstra, load_edge_list,
                                      random_graph)
from aggsim.benchmarks.histogram import (HistogramSpec, _HistWorker,
                                         run_histogram)
from aggsim.benchmarks.ig import (_REQ, _RESP, IGSpec, _IGWorker, run_ig,
                                  table_value)
from aggsim.benchmarks.phold import (_POPS_PER_TURN, _TS_EPS, PholdSpec,
                                     _PholdWorker, recount_out_of_order,
                                     run_phold)
from aggsim.benchmarks.pingack import PingAckSpec, run_pingack, sweep_pingack
from aggsim.benchmarks.sssp import SSSPSpec, _SSSPWorker, run_sssp
from aggsim.errors import UsageError
from aggsim.metrics import summarize
from aggsim.runtime import TransportConfig, spawn
from aggsim.schemes import create_aggregator
from aggsim.topology import Topology

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


class _ScalarIGWorker(_IGWorker):
    """The ig driver on the scalar path: read the clock, then insert, one
    request at a time; a per-item sink that answers each request with one
    insert and reads the clock for each response."""

    on_items = None

    def step(self, ctx):
        end = min(self.issued + self.chunk, len(self.indices))
        if self.issued >= end:
            return False
        for rid in range(self.issued, end):
            idx = self.indices[rid]
            self.send_ts[rid] = ctx.time_ns()
            ctx.insert(idx % self.w, (_REQ, self.wid, rid, idx))
        self.issued = end
        return True

    def on_item(self, ctx, item):
        p = item[1]
        if p[0] == _REQ:
            _, requester, rid, idx = p
            ctx.insert(requester, (_RESP, rid, idx, table_value(idx)))
        else:
            _, rid, idx, value = p
            if value != table_value(idx):
                self.bad_values += 1
            self.rtts.append(ctx.time_ns() - self.send_ts.pop(rid))


@pytest.mark.parametrize("scheme", SCHEMES + ("none",))
def test_ig_batch_step_matches_scalar(scheme):
    # requests through insert_many and replies through the batch sink leave
    # every output of the scalar loops unchanged: result JSON, rtt summary,
    # item seqs and message trace
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
    # threaded: send stamps are estimates, but every request is answered
    r = run_ig(spec, scheme=scheme, g=16, topo=topo, mode="threaded",
               timeout_s=60)
    assert r.matched == 200 * topo.total_workers and r.unmatched == 0
    assert r.metrics.item_latency["count"] == r.metrics.delivered


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


class _ScalarSSSPWorker(_SSSPWorker):
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
        while heap and heap[0][0] < new_threshold:
            d, _, v = heapq.heappop(heap)
            ctx.insert(v // self.block_size, (v, d))
        return len(heap)


@pytest.mark.parametrize("scheme", SCHEMES + ("none",))
def test_sssp_batch_relax_matches_scalar(scheme):
    # relaxations and releases through insert_many leave every output of the
    # scalar loop unchanged: result JSON, distances, wasted updates, phases,
    # heap tie numbers, item seqs and message trace
    topo = Topology(2, 2, 2)
    graph = random_graph(300, 6, seed=8)
    spec = SSSPSpec(graph=graph, source=0, threshold_delta=40, seed=8)
    expected = dijkstra(graph, 0)
    kind, g_fixed = resolve_scheme(scheme)

    def run(driver, g, timeout_ns):
        # run_sssp's phase loop, on a run that records seqs and a trace
        agg = create_aggregator(kind, topo, g_fixed or g, 24)
        agg.set_flush_timeout(timeout_ns)
        h = spawn(topo, agg, program=lambda wid: driver(wid, spec, topo),
                  seed=8, record_items=True, trace=True)
        threshold = spec.threshold_delta
        phases = 0
        while True:
            h.run_phase(timeout_s=60)
            phases += 1
            if not any(h.broadcast_task(lambda ctx: len(ctx.driver.deferred))):
                break
            threshold += spec.threshold_delta
            h.broadcast_task(
                lambda ctx, thr=threshold: ctx.driver.release(ctx, thr))
        m = h.await_quiescence(timeout_s=60)
        drivers = [wk.driver for wk in h.workers]
        m.wasted_updates = sum(d.wasted for d in drivers)
        dist = np.concatenate([d.dist for d in drivers])[:graph.n]
        assert np.array_equal(dist, expected)
        return (m.to_json(), m.wasted_updates, phases, dist.tolist(),
                [d._tie for d in drivers], h.inserted_seqs(),
                h.delivered_seqs(), h.trace)

    for g in (3, 16) if g_fixed is None else (1,):
        for timeout_ns in (None, 3000):
            batch = run(_SSSPWorker, g, timeout_ns)
            assert batch[2] > 1  # the heaps were used
            assert batch == run(_ScalarSSSPWorker, g, timeout_ns)
    r = run_sssp(spec, scheme=scheme, g=16, topo=topo, mode="threaded",
                 timeout_s=60)
    assert np.array_equal(r.distances, expected)


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
                  seed=9, record_items=True, trace=True,
                  record_arrivals=True)
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
