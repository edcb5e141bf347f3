import math

import pytest
from hypothesis import given, strategies as st

from aggsim.costmodel import (CostInputs, grouping_cost, latency_penalty,
                              memory_overhead, message_bounds, send_cost)
from aggsim.errors import UnboundedLatencyError, UsageError
from aggsim.schemes import SchemeKind

BASE = CostInputs(g=1024, m=8, n_processes=256, workers_per_proc=8)


def test_memory_overhead_per_core():
    assert memory_overhead(SchemeKind.WW, BASE)["per_core_bytes"] == 16_777_216
    assert memory_overhead(SchemeKind.WPS, BASE)["per_core_bytes"] == 2_097_152
    assert memory_overhead(SchemeKind.WSP, BASE)["per_core_bytes"] == 2_097_152


def test_memory_overhead_per_process():
    ww = memory_overhead(SchemeKind.WW, BASE)
    assert ww["per_process_bytes"] == 16_777_216 * 8
    pp = memory_overhead(SchemeKind.PP, BASE)
    assert pp["per_core_bytes"] == 0
    assert pp["per_process_bytes"] == 2_097_152


def test_message_bounds_flush_dominated():
    inputs = CostInputs(g=1024, m=8, n_processes=256, workers_per_proc=8,
                        z=1_000_000)
    lo, hi = message_bounds(SchemeKind.WW, inputs)
    assert lo == 977
    assert round(hi, 1) == 3024.6
    lo, hi = message_bounds(SchemeKind.WPS, inputs)
    assert lo == 977
    assert hi == 1_000_000 / 1024 + 256


def test_message_bounds_zero_items():
    inputs = CostInputs(g=64, m=8, n_processes=4, workers_per_proc=2, z=0)
    lo, hi = message_bounds(SchemeKind.WW, inputs)
    assert lo == 0
    assert hi == 8  # one potential flush per buffer


scheme_st = st.sampled_from(list(SchemeKind))


@given(scheme_st,
       st.integers(1, 4096), st.integers(1, 64),
       st.integers(1, 64), st.integers(1, 16),
       st.integers(0, 10**6))
def test_bounds_ordered_and_scale(kind, g, m, n, t, z):
    inputs = CostInputs(g=g, m=m, n_processes=n, workers_per_proc=t, z=z)
    lo, hi = message_bounds(kind, inputs)
    assert lo == math.ceil(z / g)
    assert lo <= hi
    mem = memory_overhead(kind, inputs)
    assert 0 <= mem["per_core_bytes"] <= mem["per_process_bytes"]


def test_send_cost_example():
    inputs = CostInputs(g=1024, m=8, n_processes=1, workers_per_proc=1,
                        z=1024, alpha_ns=2000, beta_ns_per_byte=0.083)
    assert send_cost(inputs) == pytest.approx(2679.936)


def test_send_cost_unaggregated_identity():
    # g=1 degenerates to z * (alpha + beta*m)
    z, m, alpha, beta = 57, 16, 130.0, 0.25
    inputs = CostInputs(g=1, m=m, n_processes=1, workers_per_proc=1, z=z,
                        alpha_ns=alpha, beta_ns_per_byte=beta)
    assert send_cost(inputs) == pytest.approx(z * (alpha + beta * m))


def test_send_cost_partial_buffer_rounds_up():
    inputs = CostInputs(g=10, m=1, n_processes=1, workers_per_proc=1, z=11,
                        alpha_ns=100.0)
    assert send_cost(inputs) == 2 * 100.0  # two messages despite z/g = 1.1


def test_latency_penalty():
    inputs = CostInputs(g=1024, m=8, n_processes=1, workers_per_proc=1,
                        fill_rate_per_ns=0.001)  # 1 item per microsecond
    assert latency_penalty(inputs) == pytest.approx(1_024_000)
    one = CostInputs(g=1, m=8, n_processes=1, workers_per_proc=1,
                     fill_rate_per_ns=0.5)
    assert latency_penalty(one) == pytest.approx(2.0)


def test_latency_penalty_unbounded():
    with pytest.raises(UnboundedLatencyError):
        latency_penalty(BASE)  # fill rate defaults to zero


def test_grouping_cost():
    assert grouping_cost(1024, 8) == 1032
    assert grouping_cost(0, 8) == 8
    with pytest.raises(UsageError):
        grouping_cost(-1, 8)


@pytest.mark.parametrize("field,value", [
    ("g", 0), ("m", 0), ("n_processes", 0), ("workers_per_proc", 0),
    ("z", -1), ("alpha_ns", -1.0), ("beta_ns_per_byte", -0.5),
    ("alpha_ns", math.nan), ("alpha_ns", math.inf),
    ("beta_ns_per_byte", math.nan), ("beta_ns_per_byte", math.inf),
    ("fill_rate_per_ns", math.nan), ("fill_rate_per_ns", math.inf),
])
def test_inputs_validated(field, value):
    kw = dict(g=1, m=1, n_processes=1, workers_per_proc=1)
    kw[field] = value
    with pytest.raises(UsageError):
        CostInputs(**kw)
