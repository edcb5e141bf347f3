"""Shared plumbing for the benchmark drivers."""
from __future__ import annotations

import hashlib
import json
import math
from numbers import Real

import numpy as np

from ..errors import UsageError
from ..runtime import TransportConfig, check_budget, spawn
from ..schemes import SchemeKind, create_aggregator
from ..topology import Topology

SCHEME_NONE = "none"  # no aggregation: every item ships as its own message
DEFAULT_TIMEOUT_S = 120.0


def resolve_scheme(token):
    """Map a CLI scheme token to (SchemeKind, g override or None).

    "none" runs the per-destination-worker layout with g=1, which degenerates
    to one message per item.
    """
    if str(token).lower() == SCHEME_NONE:
        return SchemeKind.WW, 1
    return SchemeKind.parse(token), None


def launch(*, topo: Topology, scheme, g: int, item_bytes: int, program,
           mode: str, seed: int, cfg: TransportConfig = None, trace=False,
           flush_timeout_ns=None, timeout_s=None):
    """Build the aggregator for a scheme token and spawn a run. timeout_s
    is the wall budget the caller will settle the run with; one the run
    could not honour is refused before any worker thread starts."""
    check_budget(timeout_s)
    kind, g_override = resolve_scheme(scheme)
    g_eff = g_override if g_override is not None else g
    agg = create_aggregator(kind, topo, g_eff, item_bytes)
    agg.set_flush_timeout(flush_timeout_ns)
    return spawn(topo, agg, cfg, mode=mode, program=program, seed=seed,
                 trace=trace), g_eff


class BenchResult:
    """Base for benchmark results: metrics plus workload-specific fields."""

    benchmark = "?"

    def __init__(self, metrics):
        self.metrics = metrics
        self.trace = None  # message trace entries when the run recorded them

    def extra(self) -> dict:
        return {}

    def to_dict(self) -> dict:
        out = self.metrics.to_dict()
        out["benchmark"] = self.benchmark
        out.update(self.extra())
        return out

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True,
                          separators=(",", ":"))


def int64_digest(arr) -> str:
    """SHA-256 of an array's values as contiguous int64, for a result's
    correctness output."""
    return hashlib.sha256(
        np.ascontiguousarray(arr, dtype=np.int64).tobytes()).hexdigest()


def positive(name, value):
    """value as an int; UsageError unless it is a finite whole number >= 1."""
    if not (isinstance(value, Real) and 1 <= value < math.inf
            and int(value) == value):
        raise UsageError(f"{name} must be a positive integer")
    return int(value)
