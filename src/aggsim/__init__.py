"""Message aggregation for many-worker shared-memory nodes.

Workers coalesce fine-grained items into batched messages before they cross
process boundaries. Four buffer layouts are provided, trading buffer memory
against message count and grouping work:

* ww: one buffer per (source worker, destination worker)
* wps: one buffer per (source worker, destination process), grouped by
  destination worker on arrival
* wsp: same layout as wps, grouped before sending
* pp: one buffer per (source process, destination process), shared by the
  process's workers and grouped on arrival

Every layout keeps its buffers in rows, one per source worker or, for pp,
per source process, and each row has one lock.

An analytic cost model predicts memory overhead, message counts, wire cost,
and residence latency for each layout, and the simulation engine measures
the same quantities so the two can be checked against each other.
"""
from .costmodel import (CostInputs, grouping_cost, latency_penalty,
                        memory_overhead, message_bounds, send_cost)
from .errors import (AggError, InternalInvariantError, OracleMismatch,
                     QuiescenceTimeout, SetupError, UnboundedLatencyError,
                     UsageError)
from .metrics import RunMetrics, summarize
from .runtime import (MODE_SEQUENTIAL, MODE_THREADED, RUN_MODES, RunHandle,
                      TransportConfig, WorkerProgram, parse_mode, spawn)
from .schemes import (CAUSE_FLUSH, CAUSE_FULL, CoalescedMessage, SchemeKind,
                      create_aggregator, group_items, split_grouped)
from .topology import (Batch, Item, Topology, node_of, process_of,
                       workers_of)

__version__ = "0.1.0"

__all__ = [
    "AggError", "Batch", "CAUSE_FLUSH", "CAUSE_FULL", "CoalescedMessage",
    "CostInputs", "InternalInvariantError", "Item", "MODE_SEQUENTIAL",
    "MODE_THREADED", "OracleMismatch", "QuiescenceTimeout", "RUN_MODES",
    "RunHandle", "RunMetrics", "SchemeKind", "SetupError", "Topology",
    "TransportConfig", "UnboundedLatencyError", "UsageError",
    "WorkerProgram", "create_aggregator", "group_items", "grouping_cost",
    "latency_penalty", "memory_overhead", "message_bounds", "node_of",
    "parse_mode", "process_of", "send_cost", "spawn", "split_grouped",
    "summarize", "workers_of",
]
