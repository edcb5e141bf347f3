"""One repetition of one workload, in a process of its own.

    python3 perfbench/rep.py --workload NAME --seed N --trace 0|1

Prints one JSON line: the repetition's timings, the result-JSON digest, the
simulated counters and, with ``--trace 1``, the per-layer figures and the
cost-model cross-checks. A failed oracle or cross-check is reported in that
line; any other error exits non-zero.

Untraced, only ``launch`` and ``await_quiescence`` are wrapped (one span
each), which is what ``setup_s`` and ``items_per_s`` need. Traced,
every layer boundary below is wrapped from outside the program: module
attributes the benchmark modules look up, engine and result classes, and
the aggregator and driver instances a run creates.
"""
from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import resource
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import aggsim.runtime  # noqa: E402
from aggsim import (CostInputs, grouping_cost, memory_overhead,  # noqa: E402
                    message_bounds)
from aggsim.benchmarks import base, histogram, ig, sssp  # noqa: E402
from aggsim.errors import AggError  # noqa: E402
from aggsim.runtime import SequentialRun  # noqa: E402

from tracing import SpanRecorder  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

_ENGINE_SPANS = (("_drain", "delivery.drain"), ("_round", "engine.round"),
                 ("_try_unstall", "engine.unstall"),
                 ("run_phase", "engine.phase"),
                 ("broadcast_task", "engine.broadcast"))
_AGG_SPANS = (("flush", "aggregator.flush"),
              ("flush_expired", "aggregator.flush_expired"),
              ("on_receive", "receive.on_receive"))


class Probe:
    """What the hooks capture besides spans: the run handle, and per-message
    sums taken at the transport's send boundary."""

    def __init__(self):
        self.handle = None
        self.msg_items = 0
        self.group_cost = 0


def install(rec: SpanRecorder, wl, traced: bool) -> Probe:
    probe = Probe()

    def program_hook(make):
        def program(wid):
            driver = make(wid)
            rec.patch(driver, "step", "driver.step")
            return driver
        return program

    for mod in (histogram, ig, sssp):
        def launch(*args, _launch=mod.launch, **kwargs):
            if traced:
                kwargs["program"] = program_hook(kwargs["program"])
            out = _launch(*args, **kwargs)
            probe.handle = out[0]
            return out
        mod.launch = rec.wrap("setup.launch", launch)
    rec.patch(SequentialRun, "await_quiescence", "engine.quiescence")
    if not traced:
        return probe

    create = base.create_aggregator

    def create_aggregator(*args, **kwargs):
        agg = create(*args, **kwargs)
        for attr, name in _AGG_SPANS:
            rec.patch(agg, attr, name)
        return agg
    base.create_aggregator = rec.wrap("setup.aggregator", create_aggregator)
    rec.patch(base, "spawn", "setup.spawn")

    for attr, name in _ENGINE_SPANS:
        rec.patch(SequentialRun, attr, name)
    send = rec.wrap("transport.send", SequentialRun.send)
    t = wl.topo.workers_per_proc

    def counted_send(run, msg):
        k = len(msg.items)
        probe.msg_items += k
        # ungrouped messages are grouped on arrival, one pass each; wsp,
        # which groups at the source instead, is not a workload
        if not msg.grouped:
            probe.group_cost += grouping_cost(k, t)
        return send(run, msg)
    SequentialRun.send = counted_send

    rec.patch(aggsim.runtime, "merge", "metrics.merge")
    for cls in (histogram.HistogramResult, ig.IGResult, sssp.SSSPResult):
        rec.patch(cls, "verify", "oracle.verify")
    rec.patch(sssp, "dijkstra", "oracle.dijkstra")
    return probe


def cost_checks(wl, probe: Probe, result) -> list:
    """Cost-model cross-checks; returns one message per violation."""
    agg = probe.handle.aggregator
    topo = wl.topo
    inputs = CostInputs(g=wl.g, m=wl.item_bytes,
                        n_processes=topo.total_processes,
                        workers_per_proc=topo.workers_per_proc)
    fails = []
    touches = agg.grouping_stats.touches
    if touches != probe.group_cost:
        fails.append(f"group touches {touches} != sum of grouping_cost "
                     f"{probe.group_cost}")
    if agg.allocated_bytes() != memory_overhead(agg.kind, inputs):
        fails.append(f"allocated {agg.allocated_bytes()} != memory_overhead "
                     f"{memory_overhead(agg.kind, inputs)}")
    if wl.check_message_bounds:
        m = result.metrics
        for scope, (msgs, z) in enumerate(zip(m.messages_by_scope,
                                              m.inserted_by_scope)):
            lo, hi = message_bounds(agg.kind, dataclasses.replace(inputs, z=z))
            if not lo <= msgs <= hi:
                fails.append(f"scope {scope}: {msgs} messages for {z} items, "
                             f"bounds [{lo}, {hi}]")
    return fails


def layer_metrics(rec: SpanRecorder, probe: Probe, sim: dict) -> dict:
    spans = rec.summary()

    def calls(name):
        return spans.get(name, (0, 0.0, 0.0))[0]

    def total_s(*names):
        return sum(spans.get(n, (0, 0.0, 0.0))[1] for n in names) / 1e9

    def self_s(*names):
        return sum(spans.get(n, (0, 0.0, 0.0))[2] for n in names) / 1e9

    def ratio(a, b):
        return a / b if b else 0.0

    drains = calls("delivery.drain")
    touches = probe.handle.aggregator.grouping_stats.touches
    return {
        "driver.step_calls": calls("driver.step"),
        "driver.step_self_s": self_s("driver.step"),
        "aggregator.flush_calls": calls("aggregator.flush"),
        "aggregator.flush_self_s": self_s("aggregator.flush"),
        "aggregator.flush_expired_calls": calls("aggregator.flush_expired"),
        "aggregator.flush_expired_self_s": self_s("aggregator.flush_expired"),
        "aggregator.msg_items": probe.msg_items,
        "aggregator.items_per_msg": ratio(probe.msg_items, sim["messages"]),
        "aggregator.full_frac": ratio(sim["full_messages"], sim["messages"]),
        "transport.send_calls": calls("transport.send"),
        "transport.send_self_s": self_s("transport.send"),
        # every local delivery carries one item, so calls equal self-sends
        "transport.local_deliver_calls": sim["self_sends"],
        "receive.on_receive_calls": calls("receive.on_receive"),
        "receive.on_receive_s": total_s("receive.on_receive"),
        "receive.group_touches": touches,
        "delivery.drain_calls": drains,
        "delivery.drain_self_s": self_s("delivery.drain"),
        "delivery.items_per_drain": ratio(sim["delivered"], drains),
        "engine.rounds": calls("engine.round"),
        "engine.unstall_calls": calls("engine.unstall"),
        "engine.phases": calls("engine.phase") + calls("engine.quiescence"),
        "engine.self_s": self_s("engine.round", "engine.phase",
                                "engine.quiescence", "engine.broadcast"),
        "engine.unstall_self_s": self_s("engine.unstall"),
        "setup.aggregator_s": total_s("setup.aggregator"),
        "setup.spawn_s": total_s("setup.spawn"),
        "metrics.merge_s": total_s("metrics.merge"),
        "oracle.verify_s": total_s("oracle.verify", "oracle.dijkstra"),
        "trace.spans": len(rec.start),
    }


def run_once(workload: str, seed: int, traced: bool) -> dict:
    wl = WORKLOADS[workload]
    run = wl.prepare(seed)  # input generation stays outside every timing
    rec = SpanRecorder()
    probe = install(rec, wl, traced)
    error = result = None
    t0 = time.perf_counter_ns()
    try:
        result = run()
    except AggError as exc:
        error = f"{type(exc).__name__}: {exc}"
    run_ns = time.perf_counter_ns() - t0
    out = {"error": error, "checks": [], "run_s": run_ns / 1e9}

    launch_start, launch_end = rec.spans("setup.launch")
    out["setup_s"] = (launch_end[0] - launch_start[0]) / 1e9
    _, quiesced = rec.spans("engine.quiescence")
    if len(quiesced):
        delivered = sum(w.delivered for w in probe.handle.workers)
        out["items_per_s"] = delivered / ((quiesced[-1] - launch_end[0]) / 1e9)
    out["peak_rss_mb"] = resource.getrusage(
        resource.RUSAGE_SELF).ru_maxrss / 1024
    if result is None:
        return out

    summary = result.to_dict()
    out["digest"] = hashlib.sha256(result.to_json().encode()).hexdigest()
    out["sim"] = {
        "messages": summary["messages_sent"],
        "full_messages": summary["full_messages"],
        "flush_messages": summary["flush_messages"],
        "delivered": summary["delivered"],
        "self_sends": summary["self_sends"],
        "mean_latency_ns": summary["item_latency"]["mean_ns"],
    }
    if traced:
        out["checks"] = cost_checks(wl, probe, result)
        out["layers"] = layer_metrics(rec, probe, out["sim"])
        (HERE / "out").mkdir(exist_ok=True)
        rec.save(HERE / "out" / f"{workload}.spans.npz")
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    print(json.dumps(run_once(args.workload, args.seed, bool(args.trace))))
    return 0


if __name__ == "__main__":
    sys.exit(main())
