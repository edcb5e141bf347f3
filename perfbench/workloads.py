"""The benchmark's workloads, each built from a seed.

Every workload runs in the sequential engine through a public ``run_*``
entry point. The seed given on the command line is the workload's only
input: it seeds the simulation (``spec.seed``) and, for SSSP, the generated
graph, so one seed always gives the same inputs and the same result JSON.
Sizes are fixed; they are chosen so one repetition takes a few host seconds.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from aggsim import Topology, TransportConfig
from aggsim.benchmarks import (HistogramSpec, IGSpec, SSSPSpec, random_graph,
                               run_histogram, run_ig, run_sssp)


@dataclass(frozen=True)
class Workload:
    """One workload: its aggregator parameters and an input builder.

    ``prepare(seed)`` generates the inputs (untimed) and returns a
    zero-argument callable that performs the timed ``run_*`` call, which
    verifies its result against the workload's oracle.
    """

    name: str
    scheme: str
    g: int
    item_bytes: int
    topo: Topology
    prepare: Callable[[int], Callable[[], object]]
    # message_bounds assumes one flush at the end of a stream, which only
    # the histogram satisfies; SSSP phases and ig timeouts flush repeatedly.
    check_message_bounds: bool = False


_HIST_TOPO = Topology(2, 4, 4)
_SSSP_TOPO = Topology(4, 8, 8)
_IG_TOPO = Topology(2, 4, 4)
# the C7 acceptance cell's transport: alpha, beta, comm context, header
_IG_CFG = TransportConfig(alpha_ns=2000, beta_ns_per_byte=0.5,
                          comm_cost_ns=2000, comm_enabled=True,
                          header_bytes=32)


def _hist_stream(seed):
    spec = HistogramSpec(updates_per_worker=16_384, table_size=65_536,
                         seed=seed)
    return lambda: run_histogram(spec, scheme="wps", g=1024, topo=_HIST_TOPO,
                                 item_bytes=16)


def _sssp_sparse(seed):
    spec = SSSPSpec(random_graph(16_000, 8, seed=seed), source=0,
                    threshold_delta=50, seed=seed)
    return lambda: run_sssp(spec, scheme="ww", g=64, topo=_SSSP_TOPO,
                            item_bytes=24)


def _ig_rtt(seed):
    spec = IGSpec(requests_per_worker=8192, table_size=256, seed=seed)
    return lambda: run_ig(spec, scheme="pp", g=1024, topo=_IG_TOPO,
                          cfg=_IG_CFG, item_bytes=16,
                          flush_timeout_ns=300_000)


WORKLOADS = {w.name: w for w in (
    Workload("hist-stream", "wps", 1024, 16, _HIST_TOPO, _hist_stream,
             check_message_bounds=True),
    Workload("sssp-sparse", "ww", 64, 24, _SSSP_TOPO, _sssp_sparse),
    Workload("ig-rtt", "pp", 1024, 16, _IG_TOPO, _ig_rtt),
)}
