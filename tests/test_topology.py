import pytest
from hypothesis import given, strategies as st

from aggsim.errors import UsageError
from aggsim.topology import Topology, node_of, process_of, workers_of

dims = st.integers(min_value=1, max_value=6)


def test_counts():
    topo = Topology(2, 4, 4)
    assert topo.total_processes == 8
    assert topo.total_workers == 32


def test_worker_process_node_example():
    topo = Topology(2, 2, 4)
    assert process_of(0, topo) == 0
    assert process_of(7, topo) == 1
    assert process_of(8, topo) == 2
    assert list(workers_of(3, topo)) == [12, 13, 14, 15]
    assert node_of(0, topo) == 0
    assert node_of(3, topo) == 1


@given(dims, dims, dims, st.data())
def test_worker_round_trips(nodes, ppn, wpp, data):
    topo = Topology(nodes, ppn, wpp)
    wid = data.draw(st.integers(0, topo.total_workers - 1))
    proc = process_of(wid, topo)
    assert wid in workers_of(proc, topo)
    assert 0 <= node_of(proc, topo) < nodes
    # every process owns exactly wpp workers, disjointly
    seen = set()
    for p in range(topo.total_processes):
        ws = set(workers_of(p, topo))
        assert len(ws) == wpp
        assert not ws & seen
        seen |= ws
    assert len(seen) == topo.total_workers


def test_config_round_trip():
    topo = Topology(2, 8, 4)
    assert Topology.from_config(topo.to_config()) == topo


@pytest.mark.parametrize("bad", [(0, 1, 1), (1, 0, 1), (1, 1, 0), (-2, 1, 1)])
def test_rejects_nonpositive_dims(bad):
    with pytest.raises(UsageError):
        Topology(*bad)


def test_out_of_range_lookups():
    topo = Topology(1, 2, 2)
    with pytest.raises(UsageError):
        process_of(4, topo)
    with pytest.raises(UsageError):
        workers_of(2, topo)
    with pytest.raises(UsageError):
        node_of(-1, topo)
