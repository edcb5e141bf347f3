"""CLI tests: exit codes, JSON/CSV shapes, env defaults, determinism."""
import csv
import json
import os
import shutil
import subprocess
import sys
import threading

import pytest

from aggsim import cli
from aggsim.errors import OracleMismatch, QuiescenceTimeout
from aggsim.runtime import MAX_THREADED_WORKERS

SMALL = ["--updates", "500", "--table-size", "64",
         "--nodes", "1", "--ppn", "2", "--wpp", "2", "--g", "64",
         "--seed", "3"]


def run_json(capsys, argv):
    code = cli.parse_and_run(argv)
    out = capsys.readouterr().out
    return code, json.loads(out)


# ------------------------------------------------------------------ predict

def test_predict_matches_worked_example(capsys):
    code, d = run_json(capsys, [
        "predict", "--scheme", "ww", "--g", "1024", "--m", "8",
        "--N", "256", "--t", "8", "--z", "1000000"])
    assert code == 0
    assert d["schema"] == 1
    assert d["message_bounds"] == [977, 3024.5625]
    assert d["memory_overhead"] == {"per_core_bytes": 16_777_216,
                                    "per_process_bytes": 134_217_728}
    assert d["send_cost_ns"] == 0.0
    assert d["latency_penalty_ns"] is None


def test_predict_fill_rate_enables_latency_bound(capsys):
    code, d = run_json(capsys, [
        "predict", "--scheme", "pp", "--g", "1024", "--m", "8",
        "--N", "4", "--t", "8", "--fill-rate", "0.001"])
    assert code == 0
    assert d["latency_penalty_ns"] == 1_024_000.0
    assert d["memory_overhead"]["per_core_bytes"] == 0


def test_predict_requires_shape_flags():
    assert cli.parse_and_run(["predict", "--g", "8"]) == 2


# ----------------------------------------------------------------- benchmarks

def test_histogram_json_summary(capsys):
    code, d = run_json(capsys, ["histogram"] + SMALL)
    assert code == 0
    assert d["schema"] == 1
    assert d["scheme"] == "ww" and d["g"] == 64
    assert d["produced"] == d["delivered"] == 500 * 4
    assert d["table_total"] == 2000
    assert d["oracle_ok"] is True


def test_unknown_scheme_exits_2(capsys):
    assert cli.parse_and_run(["histogram", "--scheme", "xx"] + SMALL[:-4]) == 2
    err = capsys.readouterr().err
    assert "scheme" in err


def test_none_scheme_token_means_ungrouped(capsys):
    code, d = run_json(capsys, ["histogram"] + SMALL + ["--scheme", "none"])
    assert code == 0
    assert d["scheme"] == "ww" and d["g"] == 1


def test_out_file_determinism(tmp_path):
    a, b, c = (tmp_path / n for n in ("a.json", "b.json", "c.json"))
    base = ["histogram"] + SMALL
    assert cli.parse_and_run(base + ["--out", str(a)]) == 0
    assert cli.parse_and_run(base + ["--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()
    assert cli.parse_and_run(base + ["--seed", "4", "--out", str(c)]) == 0
    assert a.read_bytes() != c.read_bytes()


def test_trace_file_is_json_lines(tmp_path):
    trace = tmp_path / "trace.jsonl"
    out = tmp_path / "out.json"
    code = cli.parse_and_run(["histogram"] + SMALL +
                             ["--trace", str(trace), "--out", str(out)])
    assert code == 0
    lines = trace.read_text().splitlines()
    assert lines
    for line in lines:
        entry = json.loads(line)
        assert {"cause", "dest_scope", "grouped", "k", "origin",
                "sent_at"} <= set(entry)


def test_phold_recount_reported(capsys):
    code, d = run_json(capsys, [
        "phold", "--lps", "4", "--init-events", "1", "--end-time", "500",
        "--nodes", "1", "--ppn", "1", "--wpp", "2", "--g", "8",
        "--record-log"])
    assert code == 0
    assert d["out_of_order_recount"] == d["out_of_order_events"]
    assert d["events_consumed"] == 8 + d["delivered"]


def test_sssp_graph_file(tmp_path, capsys):
    p = tmp_path / "g.txt"
    p.write_text("0 1 1\n1 2 1\n2 3 1\n")
    code, d = run_json(capsys, [
        "sssp", "--graph", str(p), "--nodes", "1", "--ppn", "1",
        "--wpp", "2", "--g", "8"])
    assert code == 0
    assert d["vertices"] == 4 and d["reachable"] == 4
    assert d["oracle_ok"] is True


def test_pingack_single_cell_and_sweep(capsys):
    base = ["pingack", "--messages", "5", "--workers-per-node", "2",
            "--g", "4"]
    code, d = run_json(capsys, base + ["--procs-per-node", "1"])
    assert code == 0
    assert d["acks"] == 2
    code, rows = run_json(capsys, base + ["--procs-per-node", "1,2"])
    assert code == 0
    assert isinstance(rows, list) and [r["ppn"] for r in rows] == [1, 2]


PINGACK = ["pingack", "--messages", "50", "--workers-per-node", "2",
           "--g", "4"]


def test_pingack_single_cell_writes_trace(tmp_path, capsys):
    path = tmp_path / "trace.jsonl"
    code, d = run_json(capsys, PINGACK + ["--procs-per-node", "1",
                                          "--trace", str(path)])
    assert code == 0
    entries = [json.loads(line) for line in path.read_text().splitlines()]
    assert len(entries) == d["messages_sent"] > 0
    assert sum(e["k"] for e in entries) == d["produced"] - d["self_sends"]


def test_pingack_refuses_trace_over_several_cells(tmp_path, capsys):
    path = tmp_path / "trace.jsonl"
    assert cli.parse_and_run(PINGACK + ["--procs-per-node", "1,2",
                                        "--trace", str(path)]) == 2
    assert "--trace" in capsys.readouterr().err
    assert not path.exists()


def test_pingack_refuses_item_bytes(capsys):
    # --message-size sizes pingack's items; --item-bytes would be ignored
    assert cli.parse_and_run(PINGACK + ["--procs-per-node", "1",
                                        "--item-bytes", "999"]) == 2
    assert "--message-size" in capsys.readouterr().err


# -------------------------------------------------------------- env defaults

def test_env_var_sets_default_and_flag_wins(capsys, monkeypatch):
    monkeypatch.setenv("AGG_G", "32")
    monkeypatch.setenv("AGG_SCHEME", "pp")
    code, d = run_json(capsys, ["histogram"] + SMALL[:-6])  # no --g, no seed
    assert code == 0
    assert d["g"] == 32 and d["scheme"] == "pp"
    code, d = run_json(capsys, ["histogram"] + SMALL[:-6] + ["--g", "16"])
    assert code == 0
    assert d["g"] == 16


@pytest.mark.parametrize("argv", [
    ["histogram", "--alpha", "nan"] + SMALL,
    ["histogram", "--comm-cost", "inf"] + SMALL,
    ["predict", "--scheme", "ww", "--g", "8", "--m", "8", "--N", "2",
     "--t", "2", "--alpha", "nan"],
    ["phold", "--mean-increment", "nan", "--lps", "2"] + SMALL[4:],
], ids=["histogram-alpha", "histogram-comm-cost", "predict-alpha",
        "phold-mean-increment"])
def test_non_finite_costs_and_times_exit_2(capsys, argv):
    assert cli.parse_and_run(argv) == 2
    assert "must be finite" in capsys.readouterr().err


def test_env_var_bad_scheme_still_usage_error(monkeypatch):
    monkeypatch.setenv("AGG_SCHEME", "bogus")
    assert cli.parse_and_run(["histogram"] + SMALL[:-6]) == 2


# ------------------------------------------------------------ flag defaults

_RUN_DEFAULTS = {
    "mode": "sequential", "seed": 0, "nodes": 2, "ppn": 2, "wpp": 2,
    "item_bytes": None, "alpha": 0.0, "beta": 0.0, "comm_cost": 0.0,
    "header_bytes": 0, "flush_timeout": None, "timeout": 120.0, "out": None,
    "trace": None,
}
_SINGLE = dict(_RUN_DEFAULTS, scheme="ww", g=1024, func="_cmd_single")
_SSSP_FLAGS = {"graph": None, "random_n": 1000, "degree": 8,
               "graph_seed": 0, "source": 0, "delta": 100}
_PHOLD_FLAGS = {"lps": 64, "init_events": 2, "mean_increment": 100.0,
                "end_time": 2000.0}
_DEFAULTS = {
    "sweep": dict(
        _RUN_DEFAULTS, **_SSSP_FLAGS, **_PHOLD_FLAGS, command="sweep",
        benchmark="histogram", schemes=["ww", "wps", "wsp", "pp"],
        g_values=[512, 1024, 2048, 4096], updates=20000, requests=20000,
        table_size=65536, self_only=False, func="_cmd_sweep"),
    "histogram": dict(_SINGLE, command="histogram", benchmark="histogram",
                      updates=100000, table_size=65536),
    "ig": dict(_SINGLE, command="ig", benchmark="ig", requests=50000,
               table_size=65536, self_only=False),
    "sssp": dict(_SINGLE, **_SSSP_FLAGS, command="sssp", benchmark="sssp"),
    "phold": dict(_SINGLE, **_PHOLD_FLAGS, command="phold",
                  benchmark="phold", record_log=False),
}


def _parsed(command):
    d = vars(cli._build_parser().parse_args([command]))
    d["func"] = d["func"].__name__
    return d


@pytest.mark.parametrize("command", sorted(_DEFAULTS))
def test_benchmark_flag_defaults(command, monkeypatch):
    for name in [k for k in os.environ if k.startswith("AGG_")]:
        monkeypatch.delenv(name)
    assert _parsed(command) == _DEFAULTS[command]


def test_sweep_sizes_ignore_env_pins(monkeypatch):
    monkeypatch.setenv("AGG_UPDATES", "7")
    monkeypatch.setenv("AGG_REQUESTS", "9")
    assert _parsed("histogram")["updates"] == 7
    assert _parsed("ig")["requests"] == 9
    sweep = _parsed("sweep")
    assert sweep["updates"] == sweep["requests"] == 20000


# -------------------------------------------------------------------- sweep

SWEEP_BASE = ["sweep", "--benchmark", "histogram", "--updates", "200",
              "--table-size", "64", "--nodes", "1", "--ppn", "2",
              "--wpp", "2", "--seed", "1"]


def read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def test_sweep_grid_row_per_cell(tmp_path):
    out = tmp_path / "grid.csv"
    code = cli.parse_and_run(SWEEP_BASE + [
        "--schemes", "ww,pp", "--g-values", "64,128", "--out", str(out)])
    assert code == 0
    rows = read_csv(out)
    assert [(r["scheme"], r["g"]) for r in rows] == [
        ("ww", "64"), ("ww", "128"), ("pp", "64"), ("pp", "128")]
    assert list(rows[0]) == cli._CSV_COLUMNS
    for r in rows:
        assert r["schema"] == "1"
        assert int(r["delivered"]) == 200 * 4
        assert json.loads(r["extra"])["oracle_ok"] is True
        assert float(r["wall_s"]) >= 0


def test_sweep_partial_csv_survives_failing_cell(tmp_path):
    out = tmp_path / "partial.csv"
    code = cli.parse_and_run(SWEEP_BASE + [
        "--schemes", "ww", "--g-values", "64,-1", "--out", str(out)])
    assert code == 2
    rows = read_csv(out)
    assert len(rows) == 1
    assert (rows[0]["scheme"], rows[0]["g"]) == ("ww", "64")


def test_sweep_empty_grid_emits_header_only(tmp_path):
    out = tmp_path / "empty.csv"
    code = cli.parse_and_run(SWEEP_BASE + [
        "--schemes", "", "--g-values", "64", "--out", str(out)])
    assert code == 0
    assert out.read_text().strip() == ",".join(cli._CSV_COLUMNS)


def test_sweep_rejects_unknown_scheme_token(tmp_path):
    out = tmp_path / "never.csv"
    code = cli.parse_and_run(SWEEP_BASE + [
        "--schemes", "ww,bogus", "--g-values", "64", "--out", str(out)])
    assert code == 2


def test_sweep_refuses_trace(tmp_path, capsys):
    # a sweep runs many cells and writes no trace file
    path = tmp_path / "trace.jsonl"
    out = tmp_path / "never.csv"
    assert cli.parse_and_run(SWEEP_BASE + [
        "--schemes", "ww", "--g-values", "64", "--out", str(out),
        "--trace", str(path)]) == 2
    assert "--trace" in capsys.readouterr().err
    assert not path.exists() and not out.exists()


# --------------------------------------------------------------- exit codes

def test_oracle_mismatch_exit_code(monkeypatch):
    def boom(args, scheme, g):
        raise OracleMismatch("forced")
    monkeypatch.setitem(cli._CELLS, "histogram", boom)
    assert cli.parse_and_run(["histogram"] + SMALL) == 3


def test_quiescence_timeout_exit_code(monkeypatch):
    def stall(args, scheme, g):
        raise QuiescenceTimeout("forced")
    monkeypatch.setitem(cli._CELLS, "histogram", stall)
    assert cli.parse_and_run(["histogram"] + SMALL) == 4


@pytest.mark.parametrize("budget,mode", [("nan", "sequential"),
                                         ("inf", "threaded")])
def test_wall_budget_it_cannot_honour_exits_2(budget, mode, capsys):
    assert cli.parse_and_run(["histogram"] + SMALL + [
        "--timeout", budget, "--mode", mode]) == 2
    assert "timeout_s must be None or a finite number" in (
        capsys.readouterr().err)


def test_threaded_topology_above_cap_exits_2(capsys):
    before = threading.active_count()
    code = cli.parse_and_run([
        "histogram", "--mode", "threaded", "--scheme", "pp", "--g", "64",
        "--nodes", "1", "--ppn", "1", "--wpp", str(MAX_THREADED_WORKERS + 1),
        "--table-size", "1024", "--updates", "1"])
    assert code == 2
    assert "at most" in capsys.readouterr().err
    assert threading.active_count() == before


def test_missing_subcommand_exits_2():
    assert cli.parse_and_run([]) == 2


def test_help_exits_0():
    assert cli.parse_and_run(["--help"]) == 0


# ------------------------------------------------------------- entry points

def test_module_invocation():
    r = subprocess.run(
        [sys.executable, "-m", "aggsim.cli", "predict", "--scheme", "wps",
         "--g", "10", "--m", "4", "--N", "4", "--t", "2", "--z", "100"],
        capture_output=True, text=True, timeout=60)
    assert r.returncode == 0
    d = json.loads(r.stdout)
    assert d["message_bounds"] == [10, 14.0]  # ceil(z/g), z/g + N


@pytest.mark.skipif(shutil.which("aggsim") is None,
                    reason="console script not on PATH")
def test_console_script():
    r = subprocess.run(["aggsim", "predict", "--scheme", "ww", "--g", "1",
                        "--m", "8", "--N", "2", "--t", "2", "--z", "7"],
                       capture_output=True, text=True, timeout=60)
    assert r.returncode == 0
    assert json.loads(r.stdout)["send_cost_ns"] == 0.0
