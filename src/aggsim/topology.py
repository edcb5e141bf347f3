"""Topology arithmetic and item records.

Workers, processes, and nodes carry dense zero-based global indices with a
row-major mapping: workers [p*t, (p+1)*t) belong to process p (t workers per
process), processes [n*ppn, (n+1)*ppn) belong to node n. All timestamps are
integer nanoseconds so latency sums never accumulate float drift.

An item travels either as an Item tuple in a list, or as one row of a Batch,
whose int64 columns hold many items with integer payloads.
"""
from __future__ import annotations

from dataclasses import dataclass
from itertools import repeat
from typing import Any, NamedTuple

from .errors import UsageError

# Type aliases for readability; refs are plain ints at runtime.
WorkerRef = int
ProcessRef = int
NodeRef = int


@dataclass(frozen=True)
class Topology:
    """num_nodes x procs_per_node processes, workers_per_proc workers each."""

    num_nodes: int
    procs_per_node: int
    workers_per_proc: int

    def __post_init__(self):
        for name in ("num_nodes", "procs_per_node", "workers_per_proc"):
            v = getattr(self, name)
            if not isinstance(v, int) or v < 1:
                raise UsageError(f"{name} must be a positive integer, got {v!r}")

    @property
    def total_processes(self) -> int:
        return self.num_nodes * self.procs_per_node

    @property
    def total_workers(self) -> int:
        return self.total_processes * self.workers_per_proc

    @classmethod
    def from_config(cls, obj: dict) -> "Topology":
        """Build from a config mapping with keys nodes, ppn, wpp."""
        try:
            return cls(int(obj["nodes"]), int(obj["ppn"]), int(obj["wpp"]))
        except KeyError as e:
            raise UsageError(f"topology config missing key {e.args[0]!r}") from None

    def to_config(self) -> dict:
        return {
            "nodes": self.num_nodes,
            "ppn": self.procs_per_node,
            "wpp": self.workers_per_proc,
        }


def process_of(worker: WorkerRef, topo: Topology) -> ProcessRef:
    """Process that hosts a worker."""
    if not 0 <= worker < topo.total_workers:
        raise UsageError(f"worker {worker} out of range for {topo}")
    return worker // topo.workers_per_proc


def workers_of(process: ProcessRef, topo: Topology) -> range:
    """Dense range of workers hosted by a process."""
    if not 0 <= process < topo.total_processes:
        raise UsageError(f"process {process} out of range for {topo}")
    t = topo.workers_per_proc
    return range(process * t, (process + 1) * t)


def node_of(process: ProcessRef, topo: Topology) -> NodeRef:
    """Node that hosts a process."""
    if not 0 <= process < topo.total_processes:
        raise UsageError(f"process {process} out of range for {topo}")
    return process // topo.procs_per_node


class Item(NamedTuple):
    """One application item headed for a destination worker.

    seq is unique and monotone per source worker; the engine encodes it as
    counter * total_workers + source_worker so it is also globally unique.
    payload size on the wire is the per-run item_bytes constant; the payload
    object itself is whatever the application put in.
    """

    dest: int
    payload: Any
    created_at: int
    seq: int


class Batch:
    """Items as int64 columns: data is one (4, k) array whose rows are the
    Item fields dest, payload, created_at and seq, for k items in order.

    ctx.insert_columns makes one per chunk, and on the column path a buffer
    seals into one, a message carries one and a delivery group is one.
    len() counts its items, and a slice is a Batch of the same columns'
    slices, a view. An index or an iteration gives Items of Python ints, so
    a sink that loops over Items reads a Batch as it reads a list of them.
    """

    __slots__ = ("data",)

    def __init__(self, data):
        self.data = data

    dest = property(lambda self: self.data[0])
    payload = property(lambda self: self.data[1])
    created_at = property(lambda self: self.data[2])
    seq = property(lambda self: self.data[3])

    def __len__(self) -> int:
        return self.data.shape[1]

    def __getitem__(self, i):
        if isinstance(i, slice):
            return Batch(self.data[:, i])
        return Item(*self.data[:, i].tolist())

    def __iter__(self):
        return map(tuple.__new__, repeat(Item), zip(*self.data.tolist()))
