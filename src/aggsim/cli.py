"""Command-line front end for benchmarks, sweeps, and cost predictions.

Each benchmark is a subcommand emitting one JSON summary; sweep emits a CSV
with one row per (scheme, g) cell, flushed row by row so partial output
survives a failing cell. Any flag default can be pinned by an AGG_* env var
(AGG_SCHEME, AGG_G, AGG_NODES, ...); explicit flags win over the env.

Exit codes: 0 success, 2 bad usage, 3 oracle mismatch, 4 quiescence timeout.
"""
from __future__ import annotations

import argparse
import csv
import json
import os
import sys
import time

from .benchmarks import (HistogramSpec, IGSpec, PholdSpec, PingAckSpec,
                         SSSPSpec, load_edge_list, random_graph,
                         run_histogram, run_ig, run_phold, run_pingack,
                         run_sssp, sweep_pingack)
from .costmodel import (CostInputs, latency_penalty, memory_overhead,
                        message_bounds, send_cost)
from .errors import OracleMismatch, QuiescenceTimeout, UsageError
from .runtime import TransportConfig
from .schemes import SchemeKind
from .topology import Topology

_SCHEME_TOKENS = ("ww", "wps", "wsp", "pp", "none")

_CSV_COLUMNS = [
    "schema", "benchmark", "scheme", "g", "mode", "seed",
    "nodes", "ppn", "wpp", "item_bytes",
    "messages_sent", "full_messages", "flush_messages", "bytes_sent",
    "produced", "delivered", "self_sends",
    "transport_cost_ns", "runtime_ns",
    "latency_mean_ns", "latency_p50_ns", "latency_p99_ns", "latency_max_ns",
    "wasted_updates", "out_of_order_events", "wall_s", "extra",
]


def _env(name, fallback=None):
    return os.environ.get("AGG_" + name, fallback)


def _int_list(text):
    try:
        return [int(tok) for tok in text.split(",") if tok.strip()]
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a comma list of ints: {text!r}")


def _str_list(text):
    return [tok.strip() for tok in text.split(",") if tok.strip()]


# -- shared flag groups --------------------------------------------------------
def _add_run_flags(p, with_scheme=True):
    if with_scheme:
        p.add_argument("--scheme", default=_env("SCHEME", "ww"),
                       help="ww|wps|wsp|pp|none (default %(default)s)")
        p.add_argument("--g", type=int, default=_env("G", "1024"),
                       help="buffer capacity in items (default %(default)s)")
    p.add_argument("--mode", default=_env("MODE", "sequential"),
                   help="sequential|threaded (default %(default)s)")
    p.add_argument("--seed", type=int, default=_env("SEED", "0"))
    p.add_argument("--nodes", type=int, default=_env("NODES", "2"))
    p.add_argument("--ppn", type=int, default=_env("PPN", "2"),
                   help="processes per node")
    p.add_argument("--wpp", type=int, default=_env("WPP", "2"),
                   help="workers per process")
    p.add_argument("--item-bytes", type=int,
                   default=_env("ITEM_BYTES"),
                   help="payload bytes per item (benchmark default if unset)")
    p.add_argument("--alpha", type=float, default=_env("ALPHA", "0"),
                   help="per-message transport cost, ns")
    p.add_argument("--beta", type=float, default=_env("BETA", "0"),
                   help="per-byte transport cost, ns")
    p.add_argument("--comm-cost", type=float, default=_env("COMM_COST", "0"),
                   help="serial per-message cost at the origin process, ns; "
                        "0 disables the communication context")
    p.add_argument("--header-bytes", type=int,
                   default=_env("HEADER_BYTES", "0"))
    p.add_argument("--flush-timeout", type=int,
                   default=_env("FLUSH_TIMEOUT"),
                   help="flush buffers older than this many ns")
    p.add_argument("--timeout", type=float, default=_env("TIMEOUT", "120"),
                   help="wall-clock quiescence budget, seconds")
    p.add_argument("--out", default=_env("OUT"),
                   help="write output here instead of stdout")
    p.add_argument("--trace", default=None, metavar="PATH",
                   help="write per-message trace as JSON lines")


def _topo(args) -> Topology:
    return Topology(args.nodes, args.ppn, args.wpp)


def _cfg(args):
    if not (args.alpha or args.beta or args.comm_cost or args.header_bytes):
        return None
    return TransportConfig(alpha_ns=args.alpha, beta_ns_per_byte=args.beta,
                           comm_cost_ns=args.comm_cost,
                           comm_enabled=args.comm_cost > 0,
                           header_bytes=args.header_bytes)


def _run_kwargs(args, scheme, g):
    kw = dict(scheme=scheme, g=g, mode=args.mode, cfg=_cfg(args),
              seed=args.seed, timeout_s=args.timeout,
              flush_timeout_ns=args.flush_timeout,
              trace=bool(args.trace))
    if args.item_bytes is not None:
        kw["item_bytes"] = args.item_bytes
    return kw


def _emit(args, text):
    if args.out:
        with open(args.out, "w") as f:
            f.write(text + "\n")
    else:
        print(text)


def _emit_trace(args, result):
    if args.trace and result.trace is not None:
        with open(args.trace, "w") as f:
            for entry in result.trace:
                f.write(json.dumps(entry, sort_keys=True,
                                   separators=(",", ":")) + "\n")


# -- one cell per benchmark ----------------------------------------------------
def _cell_histogram(args, scheme, g):
    spec = HistogramSpec(args.updates, args.table_size, seed=args.seed)
    return run_histogram(spec, topo=_topo(args), **_run_kwargs(args, scheme, g))


def _cell_ig(args, scheme, g):
    spec = IGSpec(args.requests, args.table_size, seed=args.seed,
                  self_only=args.self_only)
    return run_ig(spec, topo=_topo(args), **_run_kwargs(args, scheme, g))


def _graph(args):
    if args.graph:
        return load_edge_list(args.graph)
    return random_graph(args.random_n, args.degree, args.graph_seed)


def _cell_sssp(args, scheme, g):
    if getattr(args, "graph_obj", None) is None:
        args.graph_obj = _graph(args)
    spec = SSSPSpec(args.graph_obj, source=args.source,
                    threshold_delta=args.delta, seed=args.seed)
    return run_sssp(spec, topo=_topo(args), **_run_kwargs(args, scheme, g))


def _cell_phold(args, scheme, g):
    spec = PholdSpec(args.lps, args.init_events, args.mean_increment,
                     args.end_time, seed=args.seed)
    return run_phold(spec, topo=_topo(args),
                     record_log=getattr(args, "record_log", False),
                     **_run_kwargs(args, scheme, g))


_CELLS = {
    "histogram": _cell_histogram,
    "ig": _cell_ig,
    "sssp": _cell_sssp,
    "phold": _cell_phold,
}


# -- subcommand bodies ---------------------------------------------------------
def _cmd_single(args):
    result = _CELLS[args.benchmark](args, args.scheme, args.g)
    _emit(args, result.to_json())
    _emit_trace(args, result)
    return 0


def _cmd_pingack(args):
    if args.item_bytes is not None:
        raise UsageError("pingack sizes its items with --message-size, "
                         "not --item-bytes")
    single = len(args.procs_per_node) == 1
    if args.trace and not single:
        raise UsageError("--trace needs a single --procs-per-node value")
    spec = PingAckSpec(messages_per_worker=args.messages,
                       message_size=args.message_size,
                       workers_per_node=args.workers_per_node,
                       procs_per_node=tuple(args.procs_per_node),
                       seed=args.seed)
    kw = _run_kwargs(args, args.scheme, args.g)
    if single:
        result = run_pingack(spec, ppn=args.procs_per_node[0], **kw)
        _emit(args, result.to_json())
        _emit_trace(args, result)
    else:
        results = sweep_pingack(spec, **kw)
        rows = [r.to_dict() for r in results]
        _emit(args, json.dumps(rows, sort_keys=True, separators=(",", ":")))
    return 0


def _cmd_predict(args):
    kind = SchemeKind.parse(args.scheme)
    inputs = CostInputs(g=args.g, m=args.m, n_processes=args.N,
                        workers_per_proc=args.t, z=args.z,
                        alpha_ns=args.alpha, beta_ns_per_byte=args.beta,
                        fill_rate_per_ns=args.fill_rate)
    lo, hi = message_bounds(kind, inputs)
    out = {
        "schema": 1,
        "scheme": kind.value,
        "g": args.g, "m": args.m, "N": args.N, "t": args.t, "z": args.z,
        "memory_overhead": memory_overhead(kind, inputs),
        "message_bounds": [lo, hi],
        "send_cost_ns": send_cost(inputs),
        "latency_penalty_ns": (latency_penalty(inputs)
                               if args.fill_rate > 0 else None),
    }
    _emit(args, json.dumps(out, sort_keys=True, separators=(",", ":")))
    return 0


def _csv_row(benchmark, result, wall_s):
    d = result.to_dict()
    lat = d.pop("item_latency")
    topo = d.pop("topo")
    row = {k: d.get(k, "") for k in _CSV_COLUMNS}
    row.update(benchmark=benchmark,
               nodes=topo["nodes"], ppn=topo["ppn"], wpp=topo["wpp"],
               latency_mean_ns=lat["mean_ns"], latency_p50_ns=lat["p50_ns"],
               latency_p99_ns=lat["p99_ns"], latency_max_ns=lat["max_ns"],
               wall_s=round(wall_s, 6))
    skip = set(_CSV_COLUMNS) | {"benchmark"}
    extras = {k: v for k, v in d.items() if k not in skip}
    row["extra"] = json.dumps(extras, sort_keys=True) if extras else ""
    return row


def _cmd_sweep(args):
    if args.trace:
        raise UsageError("--trace needs a single run, not a sweep")
    cell = _CELLS[args.benchmark]
    for token in args.schemes:
        if token not in _SCHEME_TOKENS:
            raise UsageError(f"unknown scheme {token!r} in --schemes")
    sink = open(args.out, "w", newline="") if args.out else sys.stdout
    try:
        writer = csv.DictWriter(sink, fieldnames=_CSV_COLUMNS)
        writer.writeheader()
        sink.flush()
        for scheme in args.schemes:
            for g in args.g_values:
                t0 = time.perf_counter()
                result = cell(args, scheme, g)
                writer.writerow(_csv_row(args.benchmark, result,
                                         time.perf_counter() - t0))
                sink.flush()
    finally:
        if args.out:
            sink.close()
    return 0


# -- benchmark flag groups, declared once for the subcommand and sweep ------
def _histogram_flags(p, updates):
    p.add_argument("--updates", type=int, default=updates,
                   help="table updates per worker")
    p.add_argument("--table-size", type=int, default=65536)


def _ig_flags(p, requests):
    p.add_argument("--requests", type=int, default=requests,
                   help="read requests per worker")
    p.add_argument("--table-size", type=int, default=65536)
    p.add_argument("--self-only", action="store_true",
                   help="every worker reads only its own slots")


def _sssp_flags(p):
    p.add_argument("--graph", default=None,
                   help="edge list file: 'u v w' per line")
    p.add_argument("--random-n", type=int, default=1000,
                   help="vertices for the generated graph")
    p.add_argument("--degree", type=int, default=8,
                   help="out degree for the generated graph")
    p.add_argument("--graph-seed", type=int, default=0)
    p.add_argument("--source", type=int, default=0)
    p.add_argument("--delta", type=int, default=100,
                   help="threshold step per phase")


def _phold_flags(p):
    p.add_argument("--lps", type=int, default=64,
                   help="logical processes per worker")
    p.add_argument("--init-events", type=int, default=2,
                   help="initial events per LP")
    p.add_argument("--mean-increment", type=float, default=100.0)
    p.add_argument("--end-time", type=float, default=2000.0)


# -- parser --------------------------------------------------------------------
def _build_parser():
    top = argparse.ArgumentParser(
        prog="aggsim",
        description="message aggregation simulator and cost model")
    sub = top.add_subparsers(dest="command", required=True)

    p = sub.add_parser("histogram", help="scattered table updates")
    _histogram_flags(p, _env("UPDATES", "100000"))
    _add_run_flags(p)
    p.set_defaults(func=_cmd_single, benchmark="histogram")

    p = sub.add_parser("ig", help="random gather round trips")
    _ig_flags(p, _env("REQUESTS", "50000"))
    _add_run_flags(p)
    p.set_defaults(func=_cmd_single, benchmark="ig")

    p = sub.add_parser("sssp", help="delta-stepping shortest paths")
    _sssp_flags(p)
    _add_run_flags(p)
    p.set_defaults(func=_cmd_single, benchmark="sssp")

    p = sub.add_parser("phold", help="event cascade without rollback")
    _phold_flags(p)
    p.add_argument("--record-log", action="store_true",
                   help="keep arrival logs and cross-check the ooo count")
    _add_run_flags(p)
    p.set_defaults(func=_cmd_single, benchmark="phold")

    p = sub.add_parser("pingack", help="two-node send/ack timing")
    p.add_argument("--messages", type=int, default=1000,
                   help="messages per sending worker")
    p.add_argument("--message-size", type=int, default=64)
    p.add_argument("--workers-per-node", type=int, default=8)
    p.add_argument("--procs-per-node", type=_int_list, default="1,2,4,8",
                   help="comma list; one value runs a single cell")
    _add_run_flags(p)
    p.set_defaults(func=_cmd_pingack)

    p = sub.add_parser("predict", help="closed-form cost model")
    p.add_argument("--scheme", default=_env("SCHEME", "ww"))
    p.add_argument("--g", type=int, required=True, help="items per buffer")
    p.add_argument("--m", type=int, required=True, help="bytes per item")
    p.add_argument("--N", type=int, required=True, help="total processes")
    p.add_argument("--t", type=int, required=True, help="workers per process")
    p.add_argument("--z", type=int, default=0, help="items per source scope")
    p.add_argument("--alpha", type=float, default=_env("ALPHA", "0"))
    p.add_argument("--beta", type=float, default=_env("BETA", "0"))
    p.add_argument("--fill-rate", type=float, default=0.0,
                   help="buffer fill rate, items/ns; enables latency bound")
    p.add_argument("--out", default=_env("OUT"))
    p.set_defaults(func=_cmd_predict)

    # histogram and ig both declare --table-size; the later one stands
    p = sub.add_parser("sweep", help="scheme x buffer-size grid to CSV",
                       conflict_handler="resolve")
    p.add_argument("--benchmark", choices=sorted(_CELLS),
                   default="histogram")
    p.add_argument("--schemes", type=_str_list,
                   default=_env("SCHEMES", "ww,wps,wsp,pp"),
                   help="comma list of scheme tokens; empty for header only")
    p.add_argument("--g-values", type=_int_list,
                   default=_env("G_VALUES", "512,1024,2048,4096"),
                   help="comma list of buffer capacities")
    _histogram_flags(p, 20000)
    _ig_flags(p, 20000)
    _sssp_flags(p)
    _phold_flags(p)
    _add_run_flags(p, with_scheme=False)
    p.set_defaults(func=_cmd_sweep)

    return top


def parse_and_run(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as exc:  # argparse exits on usage errors and --help
        return int(exc.code or 0)
    try:
        return args.func(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OracleMismatch as exc:
        print(f"oracle mismatch: {exc}", file=sys.stderr)
        return 3
    except QuiescenceTimeout as exc:
        print(f"timeout: {exc}", file=sys.stderr)
        return 4


def main():
    sys.exit(parse_and_run())


if __name__ == "__main__":
    main()
