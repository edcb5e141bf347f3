import json
import math

import pytest
from hypothesis import example, given, strategies as st

from aggsim.errors import InternalInvariantError, UsageError
from aggsim.metrics import LatencyShard, MessageLog, nearest_rank, summarize
from aggsim.schemes import CoalescedMessage


def test_nearest_rank_basics():
    s = list(range(1, 101))
    assert nearest_rank(s, 50) == 50
    assert nearest_rank(s, 99) == 99
    assert nearest_rank(s, 100) == 100
    assert nearest_rank(s, 0.5) == 1
    assert nearest_rank([], 50) is None
    with pytest.raises(UsageError):
        nearest_rank(s, 0)


def test_summarize_empty():
    out = summarize([])
    assert out["count"] == 0
    assert out["mean_ns"] is None


def test_summarize_exact():
    out = summarize([4, 1, 3, 2])
    assert out == {"count": 4, "mean_ns": 2.5, "p50_ns": 2, "p99_ns": 4,
                   "max_ns": 4}


@given(st.lists(st.integers(0, 10**6), min_size=1, max_size=200))
def test_summarize_bounds(samples):
    out = summarize(samples)
    assert min(samples) <= out["p50_ns"] <= out["p99_ns"] <= out["max_ns"]
    assert out["max_ns"] == max(samples)
    assert out["mean_ns"] == pytest.approx(sum(samples) / len(samples))


def _sorted_nearest_rank(samples, pct):
    """Reference: nearest rank read from a full ascending sort."""
    s = sorted(samples)
    return s[max(1, math.ceil(pct * len(s) / 100)) - 1]


@given(st.one_of(
    st.lists(st.integers(0, 3), min_size=1, max_size=300),  # duplicates
    st.lists(st.integers(-10**12, 10**12), min_size=1, max_size=300),
    st.lists(st.integers(-2**70, 2**70), min_size=1, max_size=40),
    st.lists(st.floats(allow_nan=False), min_size=1, max_size=40)))
@example([7])
@example([9, 2])
@example([2, 2])
@example(list(range(100, 0, -1)))  # 99 * n / 100 is a whole rank
@example(list(range(200)))
@example([0] * 99 + [1])
@example([1] + [0] * 100)  # n = 101: 99 * n / 100 = 99.99 rounds up
def test_summarize_percentiles_match_full_sort(samples):
    out = summarize(samples)
    for key, pct in (("p50_ns", 50), ("p99_ns", 99)):
        want = _sorted_nearest_rank(samples, pct)
        assert out[key] == want
        assert type(out[key]) is type(want)  # Python ints: same JSON


def test_shard_exact_until_cap():
    shard = LatencyShard(cap=100, seed_material=(1, 2))
    for d in range(50):
        shard.record(d)
    assert shard.seen == 50
    assert sorted(shard.samples) == list(range(50))
    assert shard.total == sum(range(50))
    assert shard.max == 49


def test_shard_reservoir_caps_memory():
    shard = LatencyShard(cap=32, seed_material=0)
    for d in range(10_000):
        shard.record(d)
    assert len(shard.samples) == 32
    assert shard.seen == 10_000
    assert shard.max == 9_999
    assert all(0 <= s < 10_000 for s in shard.samples)


def test_shard_rejects_negative():
    shard = LatencyShard(cap=8, seed_material=0)
    with pytest.raises(InternalInvariantError):
        shard.record(-1)


def _shard_state(shard):
    return (shard.samples, shard.seen, shard.total, shard.max,
            shard._rng.getstate())


@given(st.integers(1, 12), st.integers(0, 30), st.integers(0, 2000),
       st.integers(0, 60),
       st.lists(st.lists(st.integers(0, 3000), max_size=20), max_size=6))
def test_record_many_equals_record_loop(cap, pre, t0, step, groups):
    """record_many is the record loop over t0 + (i+1)*step - created_at,
    below the cap, across it into the reservoir, and on a negative
    sample."""
    batched = LatencyShard(cap, ("s", 1))
    scalar = LatencyShard(cap, ("s", 1))
    for d in range(pre):
        batched.record(d)
        scalar.record(d)
    for created in groups:
        items = [(0, None, c, i) for i, c in enumerate(created)]
        err = None
        try:
            now = t0
            for it in items:
                now += step
                scalar.record(now - it[2])
        except InternalInvariantError as exc:
            err = exc
        if err is None:
            batched.record_many(t0, step, items)
        else:
            with pytest.raises(InternalInvariantError):
                batched.record_many(t0, step, items)
        assert _shard_state(batched) == _shard_state(scalar)


def _msg(k, cause, origin=0, scope=1):
    items = [(scope, None, 0, i) for i in range(k)]
    return CoalescedMessage(origin, scope, items, False, cause, 0, 0)


def test_message_log_counts_and_bytes():
    log = MessageLog(n_scopes=4, trace=False)
    log.record_message(_msg(3, "full"), scope=1, nbytes=3 * 8 + 32,
                       net_cost_ns=10.0)
    log.record_message(_msg(1, "flush"), scope=1, nbytes=1 * 8 + 32,
                       net_cost_ns=2.5)
    log.record_message(_msg(2, "full", scope=3), scope=3, nbytes=2 * 8 + 32,
                       net_cost_ns=0.0)
    assert log.msgs_full == [0, 1, 0, 1]
    assert log.msgs_flush == [0, 1, 0, 0]
    assert log.bytes_sent == (3 * 8 + 32) + (1 * 8 + 32) + (2 * 8 + 32)
    assert log.transport_cost_ns == pytest.approx(12.5)
    assert log.trace is None


def test_message_log_trace_fields():
    log = MessageLog(n_scopes=2, trace=True)
    log.record_message(_msg(2, "flush"), scope=1, nbytes=2 * 8,
                       net_cost_ns=0.0)
    entry = log.trace[0]
    assert set(entry) == {"origin", "dest_scope", "k", "cause", "grouped",
                          "sent_at"}
    assert entry["k"] == 2
    assert entry["cause"] == "flush"


def test_json_stable_key_order():
    out = summarize([1, 2])
    a = json.dumps(out, sort_keys=True)
    b = json.dumps(dict(reversed(list(out.items()))), sort_keys=True)
    assert a == b
