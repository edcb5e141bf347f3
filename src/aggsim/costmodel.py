"""Analytic cost model for the aggregation schemes.

Pure closed-form functions over the run parameters. The simulator uses these
as an independent cross-check: buffer allocation must match memory_overhead
exactly, measured message counts must sit inside message_bounds, and the
recorded transport cost of a clean streaming run must equal send_cost.

Symbols: g buffer capacity in items, m bytes per item, N total processes,
t workers per process, z items sent per source scope (worker for the
worker-buffered schemes, process for pp), alpha per-message latency, beta
per-byte cost, r steady item fill rate into one buffer.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import UnboundedLatencyError, UsageError
from .schemes import SchemeKind


@dataclass(frozen=True)
class CostInputs:
    g: int
    m: int
    n_processes: int
    workers_per_proc: int
    z: int = 0
    alpha_ns: float = 0.0
    beta_ns_per_byte: float = 0.0
    fill_rate_per_ns: float = 0.0

    def __post_init__(self):
        if self.g < 1:
            raise UsageError("g must be >= 1")
        if self.m < 1:
            raise UsageError("m must be >= 1")
        if self.n_processes < 1 or self.workers_per_proc < 1:
            raise UsageError("topology factors must be >= 1")
        if self.z < 0:
            raise UsageError("z must be >= 0")
        for name in ("alpha_ns", "beta_ns_per_byte", "fill_rate_per_ns"):
            if not 0 <= getattr(self, name) < math.inf:
                raise UsageError(f"{name} must be finite and >= 0")


def memory_overhead(kind: SchemeKind, inputs: CostInputs) -> dict:
    """Buffer bytes per core and per process for a scheme.

    ww buffers per destination worker at each worker: g*m*N*t per core.
    wps/wsp buffer per destination process at each worker: g*m*N per core.
    pp shares one buffer per destination process across the whole process:
    g*m*N per process and nothing owned per core.
    """
    kind = SchemeKind(kind)
    g, m = inputs.g, inputs.m
    n, t = inputs.n_processes, inputs.workers_per_proc
    if kind is SchemeKind.WW:
        per_core = g * m * n * t
        return {"per_core_bytes": per_core, "per_process_bytes": per_core * t}
    if kind in (SchemeKind.WPS, SchemeKind.WSP):
        per_core = g * m * n
        return {"per_core_bytes": per_core, "per_process_bytes": per_core * t}
    return {"per_core_bytes": 0, "per_process_bytes": g * m * n}


def message_bounds(kind: SchemeKind, inputs: CostInputs) -> tuple[int, float]:
    """(lower, upper) bound on messages emitted by one source scope.

    Lower bound ceil(z/g): every message carries at most g items. Upper bound
    z/g + (number of buffers in the scope): each buffer adds at most one
    partially filled flush message, assuming the application flushes once at
    the end. The source scope is a worker for ww/wps/wsp and a process for pp.
    """
    kind = SchemeKind(kind)
    z, g = inputs.z, inputs.g
    n, t = inputs.n_processes, inputs.workers_per_proc
    lower = math.ceil(z / g)
    if kind is SchemeKind.WW:
        slack = n * t
    else:
        slack = n
    return lower, z / g + slack


def send_cost(inputs: CostInputs) -> float:
    """Total transport cost of sending z items: (z/g)*alpha + beta*m*z.

    Exact when g divides z; otherwise the partial last buffer still pays a
    full per-message alpha, so ceil(z/g) messages are charged.
    """
    z, g = inputs.z, inputs.g
    n_messages = z / g if z % g == 0 else math.ceil(z / g)
    return n_messages * inputs.alpha_ns + inputs.beta_ns_per_byte * inputs.m * z


def latency_penalty(inputs: CostInputs) -> float:
    """Worst-case extra wait of an item in a buffer: g/r.

    The first item into a buffer waits for the remaining g-1 arrivals at fill
    rate r, so its delivery lags by up to g/r. A zero fill rate means the
    buffer never fills and the wait is unbounded.
    """
    r = inputs.fill_rate_per_ns
    if r <= 0:
        raise UnboundedLatencyError(
            "fill rate is zero: buffered items wait forever without a flush")
    return inputs.g / r


def grouping_cost(g: int, t: int) -> int:
    """Touches for one destination-side grouping pass: g + t.

    One counting touch per item plus one per destination bucket; the counting
    sort is O(g + t) total.
    """
    if g < 0 or t < 1:
        raise UsageError("need g >= 0 and t >= 1")
    return g + t
