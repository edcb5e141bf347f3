"""The benchmark's repetition runner still finds every seam it wraps."""
import json
import subprocess
import sys
from pathlib import Path

import pytest

REP = Path(__file__).resolve().parent.parent / "perfbench" / "rep.py"


@pytest.mark.parametrize("workload", ["hist-stream", "sssp-sparse", "ig-rtt"])
def test_traced_repetition_wraps_every_seam(workload):
    # rep.py wraps engine, aggregator and benchmark names from outside the
    # program, so a renamed one fails the run or drops the spans it counts;
    # every simulated message passes through the wrapped send
    proc = subprocess.run(
        [sys.executable, str(REP), "--workload", workload, "--seed", "1",
         "--trace", "1"],
        capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    rep = json.loads(proc.stdout.splitlines()[-1])
    assert rep["error"] is None
    assert rep["checks"] == []
    assert rep["layers"]["transport.send_calls"] == rep["sim"]["messages"]
