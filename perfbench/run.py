"""Host-throughput benchmark of the sequential engine.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs repetitions of one workload, each in a fresh process and one at a time
(in-process repeats drift, and ``ru_maxrss`` is per process), until the next
one would overrun ``--seconds``. Every repetition uses the same seed, so each
must produce the same result-JSON digest. A repetition fails when its oracle
fails, its digest differs from the first untraced repetition's, or (traced)
a cost-model cross-check fails.

Before the first repetition and after each one, ``calibrate.py`` measures
the host factor: how much slower than the reference host this host runs at
that moment. Each repetition's host times are divided by the mean factor
around it, so they read as seconds on the reference host and other tenants'
load largely cancels out. Memory is not scaled.

With ``--trace 0`` it reports each end-to-end metric as the median over the
repetitions. With ``--trace 1`` it alternates untraced and traced
repetitions and reports the medians of the traced ones' per-layer metrics,
plus the tracing overhead against the untraced ones.

Human-readable lines come first; the last line of standard output is one
JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``.
"""
from __future__ import annotations

import argparse
import json
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"

MIN_CYCLES = 3  # fewest repetitions (pairs, when traced) in a run
BUDGET_S = 150  # hard stop for the whole invocation, below the 180 s limit

SIM = ("messages", "full_messages", "flush_messages", "delivered",
       "mean_latency_ns")


class BenchError(Exception):
    """The benchmark could not run; no result is printed."""


def run_child(script, args, deadline) -> str:
    """Run one of the benchmark's scripts; return its last output line."""
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise BenchError("time budget exhausted")
    try:
        proc = subprocess.run([sys.executable, str(HERE / script), *args],
                              capture_output=True, text=True,
                              timeout=remaining)
    except subprocess.TimeoutExpired:
        raise BenchError(f"{script} overran the {BUDGET_S}s budget") from None
    if proc.returncode != 0:
        raise BenchError(f"{script} exited {proc.returncode}:\n"
                         f"{proc.stderr[-4000:]}")
    return proc.stdout.strip().splitlines()[-1]


def scale_host_times(rep, factor):
    """Express a repetition's host times as seconds on the reference host."""
    rep["host_factor"] = factor
    for key in ("run_s", "setup_s"):
        if key in rep:
            rep[key] /= factor
    if "items_per_s" in rep:
        rep["items_per_s"] *= factor
    layers = rep.get("layers", {})
    for key in layers:
        if key.endswith("_s"):
            layers[key] /= factor


def failures(reps):
    """Reasons each repetition failed, keyed by its index."""
    ref = next((r.get("digest") for r in reps
                if not r["traced"] and r.get("digest")), None)
    out = {}
    for i, r in enumerate(reps):
        why = list(r["checks"])
        if r["error"]:
            why.append(r["error"])
        elif r["digest"] != ref:
            why.append(f"digest {r['digest'][:16]} != first untraced "
                       f"{(ref or '?')[:16]}")
        if why:
            out[i] = why
    return out


def values_of(rows, key):
    values = [r[key] for r in rows if key in r]
    if not values:
        raise BenchError(f"no repetition measured {key}")
    return values


def main(argv=None) -> int:
    if not (SRC / "aggsim" / "__init__.py").is_file():
        print(f"run.py: no aggsim sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))
    from workloads import WORKLOADS

    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    # a terminated run still stops its child: subprocess.run kills and
    # reaps it on any exception, SystemExit included
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    start = time.monotonic()
    deadline = start + BUDGET_S
    cycle = (False, True) if args.trace else (False,)
    reps = []
    try:
        factor = float(run_child("calibrate.py", [], deadline))
        while True:
            for traced in cycle:
                rep = json.loads(run_child(
                    "rep.py", ["--workload", args.workload, "--seed",
                               str(args.seed), "--trace", str(int(traced))],
                    deadline))
                after = float(run_child("calibrate.py", [], deadline))
                scale_host_times(rep, (factor + after) / 2)
                factor = after
                rep["traced"] = traced
                reps.append(rep)
            cycles = len(reps) // len(cycle)
            elapsed = time.monotonic() - start
            per_cycle = elapsed / cycles
            if (cycles >= MIN_CYCLES
                    and elapsed + per_cycle > min(args.seconds, BUDGET_S)):
                break
    except BenchError as exc:
        print(f"run.py: {exc}", file=sys.stderr)
        return 1

    failed = failures(reps)
    plain = [r for r in reps if not r["traced"]]
    traced = [r for r in reps if r["traced"]]
    factors = [r["host_factor"] for r in reps]
    print(f"{args.workload} seed {args.seed}: {len(reps)} repetitions "
          f"({len(traced)} traced), {len(failed)} failed; host factor "
          f"median {statistics.median(factors):.4g}, "
          f"range {min(factors):.4g}..{max(factors):.4g}")
    for i, why in failed.items():
        print(f"  repetition {i} FAILED: {'; '.join(why)}")
    digests = sorted({r["digest"] for r in reps if r.get("digest")})
    print(f"  result digest {' '.join(digests)}")
    sim = next((r["sim"] for r in reps if "sim" in r), None)
    if sim is not None:
        print("  " + "  ".join(f"sim.{k} {sim[k]}" for k in SIM))

    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    declared = spec["per_layer" if args.trace else "end_to_end"]
    try:
        if sim is None:
            raise BenchError("no repetition completed")
        if args.trace:
            layers = [r["layers"] for r in traced if "layers" in r]
            if not layers:
                raise BenchError("no traced repetition completed")
            samples = {key: values_of(layers, key) for key in layers[0]}
            ips = statistics.median(values_of(plain, "items_per_s"))
            ips_traced = statistics.median(values_of(traced, "items_per_s"))
            samples["trace.overhead_frac"] = [1 - ips_traced / ips]
            for key in SIM:
                samples[f"sim.{key}"] = [sim[key]]
        else:
            samples = {m["name"]: values_of(plain, m["name"])
                       for m in declared}
        names = {m["name"] for m in declared}
        if set(samples) != names:
            raise BenchError("measured metrics differ from BENCHMARK.json: "
                             f"{sorted(set(samples) ^ names)}")
    except BenchError as exc:
        print(f"run.py: {exc}", file=sys.stderr)
        return 1

    out = {}
    for m in declared:
        key, unit, v = m["name"], m["unit"], samples[m["name"]]
        out[key] = {"value": statistics.median(v), "unit": unit}
        how = (f"median of {len(v)}, range {min(v):.6g}..{max(v):.6g}"
               if len(v) > 1 else "")
        print(f"  {key:34} {out[key]['value']:>16.6g} {unit:10} {how}")
    print(f"  {'fail_frac':34} {len(failed) / len(reps):>16.6g} "
          f"{'ratio':10} {len(failed)}/{len(reps)} repetitions")
    print(json.dumps({"correct": not failed, "attempted": len(reps),
                      "failed": len(failed), "metrics": out}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
