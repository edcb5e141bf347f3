"""Two-node ping/ack microbenchmark for transport saturation.

Node-0 workers each send messages_per_worker items to the node-1 worker at
the same local index; a node-1 worker acks to worker 0 once it has received
its full quota. Throughput is total payload items over the span from the
first send to the last ack, both on worker clocks. Sweeping procs_per_node
while holding workers-per-node fixed keeps the item volume constant and
varies only how many communication contexts carry it, which is the effect
the sweep is after.

The scheme token "none" disables aggregation (one message per item); that is
the configuration that drives a process's communication context to its
1/comm_cost_ns ceiling.
"""
from __future__ import annotations

from dataclasses import dataclass

from ..errors import OracleMismatch, UsageError
from ..runtime import TransportConfig, WorkerProgram
from ..topology import Topology
from .base import BenchResult, DEFAULT_TIMEOUT_S, launch, positive

_ACK = -1  # payload marker; payload >= 0 is a data sequence number
_CHUNK = 64  # inserts per sender step


@dataclass(frozen=True)
class PingAckSpec:
    messages_per_worker: int = 1000
    message_size: int = 64
    workers_per_node: int = 8
    procs_per_node: tuple = (1, 2, 4, 8)
    seed: int = 0

    def __post_init__(self):
        positive("messages_per_worker", self.messages_per_worker)
        positive("message_size", self.message_size)
        positive("workers_per_node", self.workers_per_node)
        if not self.procs_per_node:
            raise UsageError("procs_per_node sweep must not be empty")
        for p in self.procs_per_node:
            positive("procs_per_node entry", p)
            if self.workers_per_node % p:
                raise UsageError(
                    f"procs_per_node={p} must divide workers_per_node")


class _PingAckWorker(WorkerProgram):
    def __init__(self, wid, spec, topo, chunk):
        self.wid = wid
        self.spec = spec
        self.chunk = chunk
        wpn = topo.procs_per_node * topo.workers_per_proc
        self.is_sender = wid < wpn
        self.partner = wid + wpn if self.is_sender else wid - wpn
        self.sent = 0
        self.received = 0
        self.first_send_ns = None
        self.acks = 0
        self.expected_acks = wpn if wid == 0 else 0
        self.last_ack_ns = None

    def step(self, ctx):
        if not self.is_sender or self.sent >= self.spec.messages_per_worker:
            return False
        if self.first_send_ns is None:
            self.first_send_ns = ctx.time_ns()
        end = min(self.sent + self.chunk, self.spec.messages_per_worker)
        ctx.insert_many([self.partner] * (end - self.sent),
                        range(self.sent, end))
        self.sent = end
        return True

    def on_item(self, ctx, item):
        if item[1] == _ACK:
            self.acks += 1
            if self.acks == self.expected_acks:
                self.last_ack_ns = ctx.time_ns()
            return
        self.received += 1
        if self.received == self.spec.messages_per_worker:
            ctx.insert(0, _ACK)


class PingAckResult(BenchResult):
    benchmark = "pingack"

    def __init__(self, metrics, *, ppn, wpp, payload_items, span_ns,
                 throughput_per_ns, egress, acks, expected_acks):
        super().__init__(metrics)
        self.ppn = ppn
        self.wpp = wpp
        self.payload_items = payload_items
        self.span_ns = span_ns
        self.throughput_per_ns = throughput_per_ns
        self.egress = egress
        self.acks = acks
        self.expected_acks = expected_acks

    def extra(self):
        return {
            "ppn": self.ppn,
            "wpp": self.wpp,
            "payload_items": self.payload_items,
            "span_ns": self.span_ns,
            "throughput_items_per_ns": self.throughput_per_ns,
            "egress_per_process": self.egress,
            "acks": self.acks,
        }

    def verify(self):
        if self.acks != self.expected_acks:
            raise OracleMismatch(
                f"worker 0 saw {self.acks}/{self.expected_acks} acks")
        return self


def run_pingack(spec: PingAckSpec, *, scheme, ppn, g=1024, mode="sequential",
                cfg: TransportConfig = None, seed=None,
                timeout_s=DEFAULT_TIMEOUT_S, flush_timeout_ns=None,
                trace=False) -> PingAckResult:
    """One sweep cell: two nodes, the given procs per node."""
    if spec.workers_per_node % ppn:
        raise UsageError("ppn must divide workers_per_node")
    wpp = spec.workers_per_node // ppn
    topo = Topology(2, ppn, wpp)
    run_seed = spec.seed if seed is None else seed
    handle, _ = launch(
        topo=topo, scheme=scheme, g=g, item_bytes=spec.message_size,
        program=lambda wid: _PingAckWorker(wid, spec, topo, _CHUNK),
        mode=mode, seed=run_seed, cfg=cfg, trace=trace,
        flush_timeout_ns=flush_timeout_ns, timeout_s=timeout_s)
    metrics = handle.await_quiescence(timeout_s=timeout_s)

    drivers = [wk.driver for wk in handle.workers]
    wpn = spec.workers_per_node
    senders = drivers[:wpn]
    first = min(d.first_send_ns for d in senders)
    last = drivers[0].last_ack_ns
    span = None if last is None else max(1, last - first)
    payload = sum(d.sent for d in senders)
    egress = []
    comm = handle.comm_stats()
    if comm["enabled"]:
        for row in comm["per_process"][:ppn]:  # node-0 processes only
            if row["messages"] and row["last_done_ns"] > row["first_start_ns"]:
                window = row["last_done_ns"] - row["first_start_ns"]
                egress.append({"process": row["process"],
                               "messages": row["messages"],
                               "rate_per_ns": row["messages"] / window})
    result = PingAckResult(
        metrics, ppn=ppn, wpp=wpp, payload_items=payload, span_ns=span,
        throughput_per_ns=(payload / span if span else None), egress=egress,
        acks=drivers[0].acks, expected_acks=wpn)
    if trace:
        result.trace = handle.trace
    result.verify()
    return result


def sweep_pingack(spec: PingAckSpec, *, scheme, g=1024, mode="sequential",
                  cfg: TransportConfig = None, **kw) -> list:
    """Run every procs_per_node cell; volume is constant across cells."""
    return [run_pingack(spec, scheme=scheme, ppn=p, g=g, mode=mode, cfg=cfg,
                        **kw)
            for p in spec.procs_per_node]
