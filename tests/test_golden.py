"""Golden digests: sequential outputs stay byte-identical.

Each cell runs one benchmark on one scheme token under the C7 transport
(network cost plus the serial comm context), with and without a flush
timeout that fires, and hashes the result JSON together with the message
trace. A change that means to move outputs re-records the table:

    PYTHONPATH=src python tests/test_golden.py
"""
import hashlib
import json

import pytest

from aggsim.benchmarks import (HistogramSpec, IGSpec, PholdSpec, SSSPSpec,
                               random_graph, run_histogram, run_ig, run_phold,
                               run_sssp)
from aggsim.runtime import TransportConfig
from aggsim.topology import Topology

TOPO = Topology(2, 2, 2)
CFG = TransportConfig(alpha_ns=2000, beta_ns_per_byte=0.5, comm_cost_ns=2000,
                      comm_enabled=True, header_bytes=32)
TOKENS = ("ww", "wps", "wsp", "pp", "none")
TIMEOUTS = (None, 700)
G = 8

_GRAPH = random_graph(200, 4, seed=3)
BENCHES = {
    "ig": lambda **kw: run_ig(
        IGSpec(requests_per_worker=300, table_size=64, seed=1), **kw),
    "histogram": lambda **kw: run_histogram(
        HistogramSpec(updates_per_worker=300, table_size=64, seed=2), **kw),
    "sssp": lambda **kw: run_sssp(
        SSSPSpec(_GRAPH, source=0, threshold_delta=50, seed=4), **kw),
    "phold": lambda **kw: run_phold(
        PholdSpec(lps_per_worker=4, initial_events_per_lp=2,
                  end_time=3_000.0, seed=5), **kw),
}


def cell_digest(bench, token, timeout_ns):
    """SHA-256 of the cell's result JSON and its trace, one line each."""
    r = BENCHES[bench](scheme=token, g=G, topo=TOPO, cfg=CFG,
                       flush_timeout_ns=timeout_ns, trace=True)
    lines = [r.to_json()]
    lines += [json.dumps(e, sort_keys=True, separators=(",", ":"))
              for e in r.trace]
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


def _key(bench, token, timeout_ns):
    return f"{bench}-{token}-{timeout_ns or 'off'}"


GOLDEN = {
    "ig-ww-off":
        "f495069bdac1f9b012118b7b6ad0cd779fbebff9dadfb8e0b2622eb5219c972c",
    "ig-ww-700":
        "6283087f6e0c0c5685e325d252768c24c6efb007c46392eddfaefa1d5df25424",
    "ig-wps-off":
        "6edc47146ce97d49b2a74e07f0c16b0d8518edbec2ffdfcedf7b7e115b9816be",
    "ig-wps-700":
        "edb8c91a990b375878a5fcb47895c3079cce2cccf2efd3ab048b0ef557c250b1",
    "ig-wsp-off":
        "a566c5820b92587bec1e796bc9eea2fb219e530a6fd400ed58f76e9749b59c08",
    "ig-wsp-700":
        "fdd37cbd2770af5698183f8e3329afc4d3a56e8c15e627c97d44df499ab7c504",
    "ig-pp-off":
        "6a72f908874a0c18e8eafffa95406f0a04763935336fcd179edaf3167544acc3",
    "ig-pp-700":
        "569644fb0323883da5099286340b0f1a9e2806bb25f097902b4c7227171e8626",
    "ig-none-off":
        "4407c3f88670aec5a8bf340735bfdd5b6e2a3de7e9a785d266a9f4e9b4df1cab",
    "ig-none-700":
        "4407c3f88670aec5a8bf340735bfdd5b6e2a3de7e9a785d266a9f4e9b4df1cab",
    "histogram-ww-off":
        "bebc2e797f5503d28f30ca24ebe43330516b51d635ee510f3a19622679d01e32",
    "histogram-ww-700":
        "f086fa54818ccb6832143937941fca24c34502547bac9633f23db06496a6005f",
    "histogram-wps-off":
        "17ca28a26695410e6f5f22aa35e6b0b4dfe495c02a994e993c7b58a7b5e856dc",
    "histogram-wps-700":
        "099749dbba723a904dacb814b7fbf13ccbd7e54823e5f95c9138447176982bc7",
    "histogram-wsp-off":
        "ea020da3f0bc5ab3d17742848d4ccec9c9ce6cfb1ff5717fad986d1a74aa0cb7",
    "histogram-wsp-700":
        "a59baeec73c7f380999c99623d982a95821bfe064cc9f878a305ea9187b732b0",
    "histogram-pp-off":
        "c9ff85f590fa98d7bfb095663ffe03c78dbb4785906b1968abd58f9bfaf4b019",
    "histogram-pp-700":
        "332a47c3d5ceb450106955181cea4632281cca301ad926032010383bf0a99db0",
    "histogram-none-off":
        "314e379775b30847ecf6d956ef82628419424b95a338c4b6f68cd373107ffc16",
    "histogram-none-700":
        "314e379775b30847ecf6d956ef82628419424b95a338c4b6f68cd373107ffc16",
    "sssp-ww-off":
        "2b85f66334dd6c110b18760f097ab7e9585d6ac7a0e0556b28a984484dda995a",
    "sssp-ww-700":
        "95915c429a6bdcd471af40d943a3916fb2a3a80c6214f6a96676076e96c5d49a",
    "sssp-wps-off":
        "beea2ac2fb12933a3af1f12e12300e8611395c71c6521e41c05cd62d4807acc9",
    "sssp-wps-700":
        "ba529e3e99641855cfc844d24268c82ebd37b9c7e6e7a9ec5154d68364e25975",
    "sssp-wsp-off":
        "493901cd62c2e28ee431da818ba7f87a7240e9e83606af58d6e73916617b8017",
    "sssp-wsp-700":
        "6ea6e3f545d965e2c13f6acc4263fedb9b3575c03224cd6a49579bcb3856f681",
    "sssp-pp-off":
        "ad2fe8b82d9b7cd11cadfc1f2b4fdf82e36ee1b6013f111002c04da0f650a410",
    "sssp-pp-700":
        "a63cdfc4685761c944f8b1f4a9644524055c4f69e3909b2b40bcdfbdaf1c1fe3",
    "sssp-none-off":
        "55eea057f5b8ed102318166ff30d45d586b3d6b6716f4283a34600a17c5ecd01",
    "sssp-none-700":
        "55eea057f5b8ed102318166ff30d45d586b3d6b6716f4283a34600a17c5ecd01",
    "phold-ww-off":
        "071a403f538e45923eda546de498fa03589ec144a15269cdf790451d1265db10",
    "phold-ww-700":
        "eecea465e5b65c2c9898e702fc4340504b49a31416bbe80577f186a0d753567b",
    "phold-wps-off":
        "5d444139412145880ddfcebe8aaf86fe59affcd847c3ffa47daab87d1b762f58",
    "phold-wps-700":
        "7961f4334179e18441ccb703c10116334cc6bff991e6a8b298110b66a8e4367b",
    "phold-wsp-off":
        "8f1f2a3a44b55b7de8d50e2b350c4c524dbccd979dca52f3f7e2652833f4d950",
    "phold-wsp-700":
        "5b495124b55dd4a8b9a61ca1b3f923364f548b6226c39394cd7693c444abe752",
    "phold-pp-off":
        "b3abfe837c84ab38857b6d117cc87f34105ef7388a2d71278f7a542dc570432e",
    "phold-pp-700":
        "f8afe1f405f1aba7c260aad067d92c2a3a7a401250d85f8c280a131413685c7e",
    "phold-none-off":
        "04ce9fa55a13bcd8f1df2d9c326c208c7fc0b7b5a9776da5615f5db6a83537a3",
    "phold-none-700":
        "04ce9fa55a13bcd8f1df2d9c326c208c7fc0b7b5a9776da5615f5db6a83537a3",
}

CELLS = [(b, s, t) for b in BENCHES for s in TOKENS for t in TIMEOUTS]


@pytest.mark.parametrize("bench,token,timeout_ns", CELLS,
                         ids=[_key(*c) for c in CELLS])
def test_golden_digest(bench, token, timeout_ns):
    assert cell_digest(bench, token, timeout_ns) == GOLDEN[
        _key(bench, token, timeout_ns)]


if __name__ == "__main__":
    for c in CELLS:
        print(f'    "{_key(*c)}":\n        "{cell_digest(*c)}",')
