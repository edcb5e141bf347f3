import math
import random
import sys
import threading
import tracemalloc
from collections import Counter
from itertools import count, islice

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from aggsim.benchmarks.base import resolve_scheme
from aggsim.costmodel import CostInputs, memory_overhead
from aggsim.errors import SetupError, UsageError
from aggsim.schemes import (CoalescedMessage, GroupingStats, SchemeKind,
                            create_aggregator, group_items, split_grouped)
from aggsim.topology import Batch, Item, Topology

from helpers import LoopbackTransport, make_agg, mk_item, total_buffered

ALL_KINDS = list(SchemeKind)


def buffer_heads(agg):
    """(flush owner, destination scope, oldest item) of every non-empty
    buffer, in that order: the items whose created_at sets the deadlines.
    Row r belongs to the r-th flush owner."""
    owners = agg.flush_owners()
    return sorted((owners[r], col, buf[0]) for r, row in enumerate(agg._rows)
                  for col, buf in row.items())


# -- grouping -------------------------------------------------------------
def test_group_items_stable_counting_sort():
    topo = Topology(1, 2, 3)  # workers 0..5, process 1 owns 3,4,5
    batch = [mk_item(4, 0), mk_item(3, 1), mk_item(4, 2), mk_item(5, 3),
             mk_item(3, 4)]
    stats = GroupingStats()
    out = group_items(batch, topo, stats)
    assert [it.dest for it in out] == [3, 3, 4, 4, 5]
    # stable: original order preserved inside each destination
    assert [it.seq for it in out] == [1, 4, 0, 2, 3]
    assert stats.touches == len(batch) + topo.workers_per_proc
    assert stats.calls == 1


def test_group_items_rejects_cross_process_batch():
    topo = Topology(1, 2, 2)
    with pytest.raises(UsageError):
        group_items([mk_item(0, 0), mk_item(2, 1)], topo)


def test_group_items_empty():
    assert group_items([], Topology(1, 1, 1)) == []


@given(st.integers(1, 4), st.integers(1, 5), st.data())
def test_group_items_is_stable_permutation(ppn, wpp, data):
    topo = Topology(1, ppn, wpp)
    proc = data.draw(st.integers(0, ppn - 1))
    dests = data.draw(st.lists(
        st.integers(proc * wpp, proc * wpp + wpp - 1), min_size=1,
        max_size=50))
    batch = [mk_item(d, seq) for seq, d in enumerate(dests)]
    stats = GroupingStats()
    out = group_items(batch, topo, stats)
    assert Counter(it.seq for it in out) == Counter(range(len(batch)))
    assert [it.dest for it in out] == sorted(it.dest for it in batch)
    for d in set(dests):
        seqs = [it.seq for it in out if it.dest == d]
        assert seqs == sorted(seqs)
    assert stats.touches == len(batch) + wpp


def _counting_sort(items, topo, stats):
    """The original two-pass counting sort, kept as the reference."""
    if not items:
        return []
    t = topo.workers_per_proc
    first = items[0][0]
    if not 0 <= first < topo.total_workers:
        raise UsageError(f"destination {first} out of range")
    base = (first // t) * t
    counts = [0] * t
    for it in items:
        local = it[0] - base
        if not 0 <= local < t:
            raise UsageError("batch spans more than one destination process")
        counts[local] += 1
    offsets = [0] * t
    acc = 0
    for i, c in enumerate(counts):
        offsets[i] = acc
        acc += c
    out = [None] * len(items)
    for it in items:
        local = it[0] - base
        out[offsets[local]] = it
        offsets[local] += 1
    stats.touches += len(items) + t
    stats.calls += 1
    return out


def _runs(items):
    """The original split_grouped loop, kept as the reference."""
    plan = []
    i = 0
    while i < len(items):
        j = i + 1
        while j < len(items) and items[j][0] == items[i][0]:
            j += 1
        plan.append((items[i][0], list(items[i:j])))
        i = j
    return plan


@given(st.integers(1, 4), st.integers(1, 5), st.data())
def test_grouping_matches_counting_sort(ppn, wpp, data):
    topo = Topology(1, ppn, wpp)
    w = topo.total_workers
    # mostly one process; sometimes any worker or out of range, to reach
    # both errors
    proc = data.draw(st.integers(0, ppn - 1))
    one_proc = st.integers(proc * wpp, proc * wpp + wpp - 1)
    dests = data.draw(st.lists(
        one_proc | st.integers(-2, w + 1) if data.draw(st.booleans())
        else one_proc, max_size=40))
    batch = [mk_item(d, seq) for seq, d in enumerate(dests)]
    want_stats, got_stats = GroupingStats(), GroupingStats()
    try:
        want = _counting_sort(batch, topo, want_stats)
    except UsageError as exc:
        with pytest.raises(UsageError) as got:
            group_items(batch, topo, got_stats)
        assert ("out of range" in str(got.value)) == (
            "out of range" in str(exc))
    else:
        got = group_items(batch, topo, got_stats)
        assert got == want
        assert split_grouped(got) == _runs(want)
    assert (got_stats.touches, got_stats.calls) == (
        want_stats.touches, want_stats.calls)
    # split_grouped also takes runs that are not sorted
    assert split_grouped(batch) == _runs(batch)


def test_split_grouped_runs():
    batch = [mk_item(2, 0), mk_item(2, 1), mk_item(3, 2), mk_item(2, 3)]
    plan = split_grouped(batch)
    assert [(d, len(items)) for d, items in plan] == [(2, 2), (3, 1), (2, 1)]
    assert split_grouped([]) == []


# -- construction and wiring ----------------------------------------------
def test_parse_tokens():
    assert SchemeKind.parse("WW") is SchemeKind.WW
    assert SchemeKind.parse(SchemeKind.PP) is SchemeKind.PP
    with pytest.raises(UsageError):
        SchemeKind.parse("bogus")


def test_rejects_bad_params():
    topo = Topology(1, 2, 2)
    with pytest.raises(UsageError):
        create_aggregator(SchemeKind.WW, topo, 0, 8)
    with pytest.raises(UsageError):
        create_aggregator(SchemeKind.WW, topo, 4, 0)
    agg = create_aggregator(SchemeKind.WW, topo, 4, 8)
    with pytest.raises(UsageError):
        agg.set_flush_timeout(0)


@pytest.mark.parametrize("bad", [2.5, math.nan, math.inf, "4", None])
def test_refuses_what_no_run_can_honour(bad):
    # a NaN timeout hung the sequential unstall walk, a fractional g or an
    # infinite item size failed deep in a run, and a NaN g reached the JSON
    topo = Topology(1, 2, 2)
    for g, item_bytes in ((bad, 8), (4, bad)):
        with pytest.raises(UsageError, match="must be an integer >= 1"):
            create_aggregator(SchemeKind.PP, topo, g, item_bytes)
    agg = create_aggregator(SchemeKind.PP, topo, 4, 8)
    if bad is not None:
        with pytest.raises(UsageError, match="flush timeout must be None "
                                             "or an integer ns count > 0"):
            agg.set_flush_timeout(bad)
    for bad_ns in (0, -1, 1.0):
        with pytest.raises(UsageError):
            agg.set_flush_timeout(bad_ns)
    assert agg.flush_timeout_ns is None
    # numpy integers are integers, and are kept as Python ints
    agg = create_aggregator(SchemeKind.PP, topo, np.int64(4), np.int32(8))
    agg.set_flush_timeout(np.int64(300))
    assert (agg.g, agg.item_bytes, agg.flush_timeout_ns) == (4, 8, 300)
    assert {type(agg.g), type(agg.item_bytes),
            type(agg.flush_timeout_ns)} == {int}


@pytest.mark.parametrize("arg", ["g", "item_bytes", "flush_timeout"])
def test_refuses_a_bool_as_a_count(arg):
    # True is an Integral: it built g=1 or set a 1 ns timeout
    topo = Topology(1, 2, 2)
    if arg == "flush_timeout":
        agg = create_aggregator(SchemeKind.PP, topo, 4, 8)
        with pytest.raises(UsageError, match="flush timeout must be None "
                                             "or an integer ns count > 0"):
            agg.set_flush_timeout(True)
        assert agg.flush_timeout_ns is None
        return
    kw = {"g": 4, "item_bytes": 8, arg: True}
    with pytest.raises(UsageError, match=f"{arg} must be an integer >= 1, "
                                         "got True"):
        create_aggregator(SchemeKind.PP, topo, kw["g"], kw["item_bytes"])


def test_needs_transport_and_sinks():
    topo = Topology(1, 2, 1)
    agg = create_aggregator(SchemeKind.WW, topo, 4, 8)
    with pytest.raises(SetupError):  # not bound to a run yet
        agg.insert_batch(0, [mk_item(1, 0)])
    agg.bind(LoopbackTransport())
    with pytest.raises(UsageError):  # one run per aggregator
        agg.bind(LoopbackTransport())


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_rejects_out_of_range_dest(kind):
    topo = Topology(1, 2, 1)
    agg, tr = make_agg(kind, topo, 4)
    with pytest.raises(UsageError):
        agg.insert_batch(0, [mk_item(9, 0)])
    # the inline range test fails over to _refuse, which names the dest
    for dest in (-1, topo.total_workers):
        with pytest.raises(UsageError) as got:
            agg.insert_batch(0, [mk_item(dest, 0)])
        assert str(got.value) == f"destination worker {dest} out of range"
    assert tr.messages == [] and tr.local == []
    assert total_buffered(agg) == 0


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_unbound_scalar_insert_raises_setup_error(kind):
    topo = Topology(1, 2, 1)
    unbound = create_aggregator(kind, topo, 4, 8)
    for dest in (0, 1):  # same process and remote
        with pytest.raises(SetupError) as got:
            unbound.insert_batch(0, [mk_item(dest, 0)])
        assert str(got.value) == "aggregator not attached to a run"
    with pytest.raises(UsageError):  # the range is checked first
        unbound.insert_batch(0, [mk_item(2, 0)])


# -- layout vs analytic model ----------------------------------------------
@given(st.sampled_from(ALL_KINDS), st.integers(1, 3), st.integers(1, 4),
       st.integers(1, 4), st.integers(1, 512), st.integers(1, 64))
@settings(max_examples=60)
def test_allocated_bytes_matches_model(kind, nodes, ppn, wpp, g, m):
    topo = Topology(nodes, ppn, wpp)
    agg = create_aggregator(kind, topo, g, m)
    inputs = CostInputs(g=g, m=m, n_processes=topo.total_processes,
                        workers_per_proc=wpp)
    assert agg.allocated_bytes() == memory_overhead(kind, inputs)


def test_ww_allocates_rows_lazily():
    # 1,024 workers: an eager w x w layout would build about a million lists
    topo = Topology(4, 16, 16)
    tracemalloc.start()
    try:
        agg = create_aggregator(SchemeKind.WW, topo, 64, 8)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20
    inputs = CostInputs(g=64, m=8, n_processes=topo.total_processes,
                        workers_per_proc=topo.workers_per_proc)
    assert agg.allocated_bytes() == memory_overhead(SchemeKind.WW, inputs)


# -- buffering semantics ---------------------------------------------------
def test_ww_fills_and_flushes():
    topo = Topology(1, 2, 2)  # workers 0,1 | 2,3
    agg, tr = make_agg(SchemeKind.WW, topo, g=3)
    for seq in range(3):
        agg.insert_batch(0, [mk_item(2, seq, created_at=seq * 10)])
    assert len(tr.messages) == 1
    msg = tr.messages[0]
    assert msg.cause == "full" and msg.k == 3
    assert msg.dest_scope == 2 and msg.origin == 0 and msg.src_worker == 0
    assert msg.sent_at == 20
    # partially filled buffer flushes with k < g
    agg.insert_batch(0, [mk_item(3, 3, created_at=40)])
    assert agg.owner_buffered(0) == 1
    assert agg.flush(0, now=50) == 1
    assert tr.messages[-1].cause == "flush" and tr.messages[-1].k == 1
    assert total_buffered(agg) == 0
    # all four items were buffered at worker 0 and left in its messages
    assert [(m.src_worker, m.k) for m in tr.messages] == [(0, 3), (0, 1)]


def test_same_process_bypasses_buffers():
    for kind in ALL_KINDS:
        agg, tr = make_agg(kind, Topology(1, 1, 4), g=8)
        item = mk_item(3, 0, created_at=5)
        agg.insert_batch(0, [item])
        assert tr.messages == []
        assert tr.local == [(3, (item,), 5)]
        assert total_buffered(agg) == 0


def test_wps_buffers_per_dest_process():
    topo = Topology(1, 3, 2)  # three processes
    agg, tr = make_agg(SchemeKind.WPS, topo, g=4)
    # worker 0 scatters to both workers of process 1: same buffer
    agg.insert_batch(0, [mk_item(2, 0)])
    agg.insert_batch(0, [mk_item(3, 1)])
    agg.insert_batch(0, [mk_item(2, 2)])
    agg.insert_batch(0, [mk_item(3, 3)])
    [msg] = tr.messages
    assert msg.dest_scope == 1 and msg.k == 4
    assert not msg.grouped  # wps leaves grouping to the receiver
    plan = agg.on_receive(msg)
    assert [(d, len(items)) for d, items in plan] == [(2, 2), (3, 2)]
    assert agg.grouping_stats.calls == 1


def test_wsp_groups_at_source():
    topo = Topology(1, 3, 2)
    agg, tr = make_agg(SchemeKind.WSP, topo, g=4)
    for seq, dest in enumerate((3, 2, 3, 2)):
        agg.insert_batch(0, [mk_item(dest, seq)])
    [msg] = tr.messages
    assert msg.grouped
    assert [it.dest for it in msg.items] == [2, 2, 3, 3]
    calls_after_send = agg.grouping_stats.calls
    assert calls_after_send == 1
    plan = agg.on_receive(msg)
    assert [d for d, _ in plan] == [2, 3]
    assert agg.grouping_stats.calls == calls_after_send  # receiver only splits


def test_ww_on_receive_single_run():
    agg, tr = make_agg(SchemeKind.WW, Topology(1, 2, 1), g=2)
    agg.insert_batch(0, [mk_item(1, 0)])
    agg.insert_batch(0, [mk_item(1, 1)])
    agg.insert_columns(0, Batch(np.array(
        [[1, 1], [0, 0], [5, 6], [2, 3]], dtype=np.int64)))
    msg, columns = tr.messages
    assert agg.on_receive(msg) == [(1, list(msg.items))]
    # the one group is the message's own list or Batch, not a copy: that
    # no-copy hand-over is why ww skips grouping
    for m in (msg, columns):
        [(dest, group)] = agg.on_receive(m)
        assert dest == 1 and group is m.items
    assert type(columns.items) is Batch
    assert agg.grouping_stats.calls == 0


def test_pp_shares_buffer_across_source_workers():
    topo = Topology(1, 2, 2)  # process 0: workers 0,1; process 1: workers 2,3
    agg, tr = make_agg(SchemeKind.PP, topo, g=4)
    agg.insert_batch(0, [mk_item(2, 0, created_at=10)])
    agg.insert_batch(1, [mk_item(3, 1, created_at=11)])
    agg.insert_batch(0, [mk_item(2, 2, created_at=12)])
    assert agg.owner_buffered(0) == agg.owner_buffered(1) == 3
    # the fourth item seals the shared buffer
    agg.insert_batch(1, [mk_item(3, 3, created_at=13)])
    [msg] = tr.messages
    assert msg.k == 4 and msg.origin == 0 and msg.dest_scope == 1
    assert total_buffered(agg) == 0
    plan = agg.on_receive(msg)
    assert sorted(d for d, _ in plan) == [2, 3]
    assert sum(len(items) for _, items in plan) == 4


def test_pp_seal_timestamp_covers_newest_item():
    # a slow worker can seal a buffer holding a faster worker's newer items;
    # the message must not depart before its newest item was created
    topo = Topology(1, 2, 2)
    agg, tr = make_agg(SchemeKind.PP, topo, g=2)
    agg.insert_batch(0, [mk_item(2, 0, created_at=1000)])
    # seals at its own now=50
    agg.insert_batch(1, [mk_item(2, 1, created_at=50)])
    [msg] = tr.messages
    assert msg.sent_at == 1000
    # flush path: another worker flushes a buffer holding a newer item
    agg.insert_batch(0, [mk_item(3, 2, created_at=700)])
    assert agg.flush(1, now=80) == 1
    assert tr.messages[-1].sent_at == 700
    # expiry path: the timer runs from the oldest item, but the message
    # still departs no earlier than the newest one
    agg, tr = make_agg(SchemeKind.PP, topo, g=4, timeout_ns=100)
    agg.insert_batch(1, [mk_item(2, 3, created_at=10)])
    agg.insert_batch(0, [mk_item(3, 4, created_at=900)])
    assert agg.flush_expired(1, now=120) == 1
    assert tr.messages[-1].sent_at == 900



class _CountingLock:
    """A row lock that logs each acquisition under its row's key."""

    def __init__(self, key, log):
        self._lock = threading.Lock()
        self._key = key
        self._log = log

    def __enter__(self):
        self._log.append(self._key)
        return self._lock.__enter__()

    def __exit__(self, *exc):
        return self._lock.__exit__(*exc)


def _count_locks(agg):
    log = []
    agg._locks[:] = [_CountingLock(r, log) for r in range(len(agg._locks))]
    return log


def test_pp_takes_its_row_lock_once_per_chunk():
    # a chunk takes its source process's row lock once, however its items
    # interleave and however often it fills a buffer; a flush_expired with
    # nothing due takes none, and next_deadline and owner_buffered none at
    # all, on a filled row or an empty one
    topo = Topology(1, 4, 2)  # processes 0-3, two workers each
    agg, tr = make_agg(SchemeKind.PP, topo, g=2, timeout_ns=100)
    log = _count_locks(agg)
    dests = [2, 4, 0, 3, 2, 6, 1, 2, 7, 3]  # process 1: five items
    items = [mk_item(d, 30 - i, created_at=10 + i)
             for i, d in enumerate(dests)]
    agg.insert_batch(0, items)
    assert log == [0]
    # process 1 seals at positions 3 and 7, process 3 at position 8; the
    # descending seqs would order them the other way
    assert [(m.dest_scope, [it.seq for it in m.items]) for m in tr.messages
            ] == [(1, [30, 27]), (1, [26, 23]), (3, [25, 22])]
    assert [d for d, _, _ in tr.local] == [0, 1]
    assert agg.owner_buffered(0) == 2  # one item each for processes 1, 2
    agg.insert_batch(3, [mk_item(0, 31, created_at=30)])
    assert log == [0, 1]  # worker 3 fills process 1's row
    log.clear()
    assert [agg.next_deadline(w) for w in range(8)] == (
        [111] * 2 + [130] * 2 + [None] * 4)
    assert [agg.owner_buffered(w) for w in range(8)] == (
        [2] * 2 + [1] * 2 + [0] * 4)
    assert agg.flush_expired(1, now=109) == 0  # the oldest is due at 111
    assert agg.flush_expired(4, now=10**6) == 0  # process 2's row is empty
    assert log == []
    assert agg.flush_expired(0, now=111) == 1  # only process 2's buffer
    assert log == [0]
    assert tr.messages[-1].dest_scope == 2


class _SwapLock:
    """A row lock whose acquisition replaces one of the row's buffers, as
    another worker's flush and insert would between a peek and the lock."""

    def __init__(self, row, col, items):
        self._lock = threading.Lock()
        self._row = row
        self._col = col
        self._items = items

    def __enter__(self):
        self._row[self._col] = self._items
        return self._lock.__enter__()

    def __exit__(self, *exc):
        return self._lock.__exit__(*exc)


def test_pp_flush_expired_checks_again_under_the_lock():
    # at 150 the lock-free peek picks the buffer (its item of 10 was due at
    # 110), but by the time the lock is held the buffer holds a fresh item of
    # 120, due at 220; the check under the lock leaves it buffered
    agg, tr = make_agg(SchemeKind.PP, Topology(1, 2, 1), g=4, timeout_ns=100)
    agg.insert_batch(0, [mk_item(1, 0, created_at=10)])
    row = agg._rows[0]
    fresh = mk_item(1, 1, created_at=120)
    agg._locks[0] = _SwapLock(row, 1, [fresh])
    assert agg.flush_expired(0, now=150) == 0
    assert tr.messages == []
    assert row == {1: [fresh]}
    assert agg.next_deadline(0) == 220


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_lock_free_readers_skip_a_buffer_being_created(kind):
    # an insert creates its buffer empty, under the row lock, just before
    # it appends; a reader without the lock may see it in between
    agg, tr = make_agg(kind, Topology(1, 2, 1), g=4, timeout_ns=100)
    log = _count_locks(agg)
    agg._rows[0][1]  # the row's defaultdict makes the empty buffer
    assert agg.owner_buffered(0) == 0
    assert agg.next_deadline(0) is None
    assert agg.flush_expired(0, now=10**6) == 0
    assert log == [] and tr.messages == []


def test_flush_owners_cover_each_buffer_once():
    topo = Topology(1, 2, 3)
    for kind in ALL_KINDS:
        agg, tr = make_agg(kind, topo, g=100)
        agg.insert_batch(0, [mk_item(4, 0)])
        agg.insert_batch(5, [mk_item(1, 1)])
        total = sum(agg.flush(owner, 0) for owner in agg.flush_owners())
        assert total == 2
        assert total_buffered(agg) == 0


# -- timeout flushing -------------------------------------------------------
@pytest.mark.parametrize("kind", ALL_KINDS)
def test_flush_expired_only_due_buffers(kind):
    topo = Topology(1, 3, 1)  # one worker per process: no local shortcut
    agg, tr = make_agg(kind, topo, g=10, timeout_ns=100)
    agg.insert_batch(0, [mk_item(1, 0)])
    agg.insert_batch(0, [mk_item(2, 1, created_at=90)])
    assert agg.flush_expired(0, now=50) == 0
    assert agg.flush_expired(0, now=100) == 1  # only the older buffer is due
    assert tr.messages[-1].cause == "flush"
    assert agg.owner_buffered(0) == 1
    assert agg.flush_expired(0, now=500) == 1
    assert total_buffered(agg) == 0
    assert agg.flush_expired(0, now=1000) == 0  # nothing left


def test_next_deadline_follows_each_owners_flush():
    agg, _ = make_agg(SchemeKind.WW, Topology(1, 3, 1), g=10, timeout_ns=100)
    agg.insert_batch(2, [mk_item(0, 0, created_at=40)])
    agg.insert_batch(0, [mk_item(1, 1, created_at=10)])
    assert [agg.next_deadline(o) for o in range(3)] == [110, None, 140]
    assert buffer_heads(agg) == [(0, 1, mk_item(1, 1, created_at=10)),
                                 (2, 0, mk_item(0, 0, created_at=40))]
    agg.flush(0, 50)
    assert [agg.next_deadline(o) for o in range(3)] == [None, None, 140]
    assert buffer_heads(agg) == [(2, 0, mk_item(0, 0, created_at=40))]


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_next_deadline_is_the_scopes_earliest(kind):
    # each worker reads the earliest deadline of the buffers its
    # flush_expired covers: its own row, or its process's pp row
    topo = Topology(1, 3, 2)
    agg, _ = make_agg(kind, topo, g=10, timeout_ns=100)
    assert [agg.next_deadline(w) for w in range(6)] == [None] * 6
    agg.insert_batch(1, [mk_item(4, 0, created_at=40)])
    agg.insert_batch(1, [mk_item(2, 1, created_at=10)])
    agg.insert_batch(0, [mk_item(5, 2, created_at=70)])
    want = {0: 170, 1: 110}
    if kind is SchemeKind.PP:  # workers 0 and 1 share process 0's row
        want = {0: 110, 1: 110}
    assert [agg.next_deadline(w) for w in range(6)] == [
        want.get(w) for w in range(6)]
    agg.flush(1, 200)
    left = None if kind is SchemeKind.PP else 170
    assert [agg.next_deadline(0), agg.next_deadline(1)] == [left, None]


class _ScanRef:
    """The buffers as the docstrings describe them, item by item, with no
    deadline floor. A row belongs to a flush owner (a worker, or a process
    for pp) and maps a column (the destination worker for ww, its process
    otherwise) to its items in insert order; a same-process item bypasses
    the buffers. A buffer seals at g items, departing at the filling item's
    stamp; a flush seals the row's buffers in ascending column order, and a
    timeout poll those whose head, the first-inserted item's created_at,
    is the timeout old. wsp sorts a message by destination, stably, and a
    pp message departs no earlier than its newest item. Every poll and
    deadline query scans every buffer's head."""

    def __init__(self, kind, topo, g, timeout_ns):
        self.kind = kind
        self.t = topo.workers_per_proc
        self.width = 1 if kind is SchemeKind.WW else self.t
        self.owner_width = self.t if kind is SchemeKind.PP else 1
        self.g = g
        self.timeout_ns = timeout_ns
        self.rows = [{} for _ in range(topo.total_workers // self.owner_width)]
        self.messages = []
        self.local = []

    def insert(self, source, items):
        row = self.rows[source // self.owner_width]
        for it in items:
            if it[0] // self.t == source // self.t:
                self.local.append((it[0], [tuple(it)], it[2]))
                continue
            col = it[0] // self.width
            buf = row.setdefault(col, [])
            buf.append(tuple(it))
            if len(buf) == self.g:
                self._seal(row, source, col, "full", it[2])

    def _seal(self, row, source, col, cause, now):
        items = row.pop(col)
        if self.kind is SchemeKind.WSP:
            items.sort(key=lambda it: it[0])
        if self.kind is SchemeKind.PP:
            now = max(now, max(it[2] for it in items))
        self.messages.append((
            source // self.t, col,
            self.kind in (SchemeKind.WW, SchemeKind.WSP), cause, now, source,
            items))

    def flush(self, source, now, due=lambda head: True):
        row = self.rows[source // self.owner_width]
        cols = sorted(col for col, buf in row.items() if due(buf[0][2]))
        for col in cols:
            self._seal(row, source, col, "flush", now)
        return len(cols)

    def flush_expired(self, source, now):
        tns = self.timeout_ns
        if tns is None:
            return 0
        return self.flush(source, now, lambda head: head + tns <= now)

    def next_deadline(self, worker):
        heads = [buf[0][2] for buf in
                 self.rows[worker // self.owner_width].values()]
        if self.timeout_ns is None or not heads:
            return None
        return min(heads) + self.timeout_ns

    def buffered(self, worker):
        return sum(map(len, self.rows[worker // self.owner_width].values()))


def _check_against_scan(agg, tr, ref, w):
    assert _outputs(agg, tr) == (ref.messages, ref.local)
    assert [agg.next_deadline(o) for o in range(w)] == [
        ref.next_deadline(o) for o in range(w)]
    assert [agg.owner_buffered(o) for o in range(w)] == [
        ref.buffered(o) for o in range(w)]


def _insert(agg, ref, source, items, columns):
    if columns:
        agg.insert_columns(source, Batch(np.array(
            [list(col) for col in zip(*items)], dtype=np.int64)))
    else:
        agg.insert_batch(source, items)
    ref.insert(source, items)


@given(st.sampled_from(ALL_KINDS),
       st.sampled_from([Topology(1, 3, 2), Topology(2, 1, 3),
                        Topology(1, 4, 2), Topology(1, 4, 1)]),
       st.data())
@settings(max_examples=150, deadline=None)
def test_deadline_floor_polls_match_a_scan(kind, topo, data):
    """flush_expired, which skips a row while its deadline floor is not
    due, seals what a scan of every buffer's head seals, in the same
    order, and next_deadline reads the scan's answer. Chunks are lists or
    columns whose stamps may go back, a pp row's workers stamp on their own
    clocks, and the timeout may be set, changed or cleared while items are
    buffered."""
    w = topo.total_workers
    g = data.draw(st.integers(1, 5), label="g")
    timeout_ns = data.draw(st.none() | st.integers(1, 60), label="timeout")
    agg, tr = make_agg(kind, topo, g, timeout_ns=timeout_ns)
    ref = _ScanRef(kind, topo, g, timeout_ns)
    seqs = count()
    for _ in range(data.draw(st.integers(1, 24), label="calls")):
        call = data.draw(st.sampled_from(
            ["list", "columns", "expire", "sweep", "flush", "timeout"]))
        src = data.draw(st.integers(0, w - 1), label="source")
        now = data.draw(st.integers(0, 160), label="now")
        if call in ("list", "columns"):
            rows = data.draw(st.lists(st.tuples(
                st.integers(0, w - 1), st.integers(0, 100)),
                min_size=1, max_size=3 * g), label="chunk")
            items = [Item(d, seq, c, seq) for (d, c), seq in zip(rows, seqs)]
            _insert(agg, ref, src, items, call == "columns")
        elif call == "expire":
            assert agg.flush_expired(src, now) == ref.flush_expired(src, now)
        elif call == "sweep":  # polls as the clock moves on, one per ns
            for at in range(now, now + 40):
                assert agg.flush_expired(src, at) == ref.flush_expired(src,
                                                                       at)
        elif call == "flush":
            assert agg.flush(src, now) == ref.flush(src, now)
        else:
            tns = data.draw(st.none() | st.integers(1, 60), label="reset")
            agg.set_flush_timeout(tns)
            ref.timeout_ns = tns
        _check_against_scan(agg, tr, ref, w)
    for o in agg.flush_owners():
        assert agg.flush(o, 10**6) == ref.flush(o, 10**6)
    _check_against_scan(agg, tr, ref, w)


@pytest.mark.parametrize("columns", [False, True], ids=["list", "columns"])
def test_deadline_floor_takes_a_chunks_earliest_stamp(columns):
    # worker 0's chunk stamps its same-process item at 60, then goes back
    # to 0 for process 1's buffer, due at 1: a floor taken from the chunk's
    # first stamp would skip the poll at 60
    topo = Topology(1, 3, 2)
    agg, tr = make_agg(SchemeKind.PP, topo, g=2, timeout_ns=1)
    ref = _ScanRef(SchemeKind.PP, topo, 2, 1)
    _insert(agg, ref, 0, [mk_item(0, 0, created_at=60, payload=0),
                          mk_item(2, 1, created_at=0, payload=0)], columns)
    assert agg.flush_expired(0, 60) == ref.flush_expired(0, 60) == 1
    _check_against_scan(agg, tr, ref, topo.total_workers)


def test_timeout_set_while_items_are_buffered_is_not_hidden():
    # insert_batch keeps no floor while no timeout is set; setting one
    # recomputes the floors from the buffered heads
    agg, tr = make_agg(SchemeKind.WW, Topology(1, 2, 1), g=10)
    agg.insert_batch(0, [mk_item(1, 0, created_at=5)])
    agg.set_flush_timeout(10)
    assert agg.next_deadline(0) == 15
    assert agg.flush_expired(0, 14) == 0
    assert agg.flush_expired(0, 15) == 1
    assert tr.messages[-1].sent_at == 15


def test_seal_clears_timeout_timer():
    agg, tr = make_agg(SchemeKind.WW, Topology(1, 2, 1), g=2, timeout_ns=100)
    agg.insert_batch(0, [mk_item(1, 0)])
    # fills: timer must vanish
    agg.insert_batch(0, [mk_item(1, 1, created_at=1)])
    assert [agg.next_deadline(o) for o in range(2)] == [None, None]
    assert buffer_heads(agg) == []
    assert agg.flush_expired(0, now=10**9) == 0


# -- the message path -------------------------------------------------------
def test_coalesced_message_fields_are_its_slots():
    items = [mk_item(3, 0), mk_item(3, 1)]
    msg = CoalescedMessage(1, 3, items, True, "flush", 70, 2)
    assert (msg.origin, msg.dest_scope, msg.items, msg.grouped, msg.cause,
            msg.sent_at, msg.src_worker) == tuple(msg)
    assert msg.items is msg[2] and msg.k == 2
    # the schemes' fast build is the same message
    raw = tuple.__new__(CoalescedMessage, (1, 3, items, True, "flush", 70, 2))
    assert type(raw) is CoalescedMessage and raw == msg
    assert raw.sent_at == 70 and raw.src_worker == 2
    assert CoalescedMessage(0, 1, [], False, "full", 0).src_worker == -1


@given(st.sampled_from(ALL_KINDS), st.integers(1, 6), st.data())
@settings(max_examples=80, deadline=None)
def test_flush_sends_one_message_per_buffer_in_dest_order(kind, g, data):
    """flush and flush_expired send each non-empty (due) buffer of the
    owner's scope as one "flush" message, in ascending destination order,
    stamped now (pp: no earlier than its newest item). A model of the
    buffers, fed by the same inserts, says which buffers those are."""
    topo = Topology(1, 3, 2)
    t = topo.workers_per_proc
    tns = data.draw(st.none() | st.integers(1, 60))
    agg, tr = make_agg(kind, topo, g=g, timeout_ns=tns)
    pp = kind == SchemeKind.PP
    width = 1 if kind == SchemeKind.WW else t
    model = {}  # (flush owner, dest scope) -> buffered items
    inserts = data.draw(st.lists(st.tuples(
        st.integers(0, 5), st.integers(0, 5), st.integers(0, 100)),
        max_size=40))
    for seq, (src, dest, created) in enumerate(inserts):
        item = mk_item(dest, seq, created_at=created)
        sent = len(tr.messages)
        agg.insert_batch(src, [item])
        if dest // t == src // t:
            assert len(tr.messages) == sent
            continue
        key = ((src // t) * t if pp else src, dest // width)
        buf = model.setdefault(key, [])
        buf.append(item)
        if len(buf) == g:
            del model[key]
            assert len(tr.messages) == sent + 1
            assert tr.messages[-1].cause == "full"
        else:
            assert len(tr.messages) == sent
    now = data.draw(st.integers(0, 200))
    expire = tns is not None and data.draw(st.booleans())
    for owner in agg.flush_owners():
        start = len(tr.messages)
        n = (agg.flush_expired(owner, now) if expire
             else agg.flush(owner, now))
        due = sorted(col for (o, col), buf in model.items() if o == owner
                     and (not expire or buf[0].created_at + tns <= now))
        sent = tr.messages[start:]
        assert n == len(sent) == len(due)
        for msg, col in zip(sent, due):
            buf = model.pop((owner, col))
            assert msg.cause == "flush"
            assert (msg.origin, msg.dest_scope, msg.src_worker) == (
                owner // t, col, owner)
            if kind == SchemeKind.WSP:
                buf = sorted(buf, key=lambda it: it.dest)
            assert msg.items == buf
            assert msg.sent_at == (max(now, *(it.created_at for it in buf))
                                   if pp else now)
    assert total_buffered(agg) == sum(map(len, model.values()))
    if not expire:
        assert not model


# -- batch inserts ----------------------------------------------------------
@given(st.sampled_from(ALL_KINDS), st.data())
@settings(max_examples=80, deadline=None)
def test_insert_batch_matches_insert_loop(kind, data):
    """A chunk through insert_batch has the effects of insert() per item:
    the same messages in the same order (sent_at, cause, items), local
    deliveries, counters and timers."""
    topo = Topology(1, 3, 2)
    g = data.draw(st.integers(1, 6))
    timeout_ns = data.draw(st.none() | st.integers(1, 50))
    a, ta = make_agg(kind, topo, g=g, timeout_ns=timeout_ns)
    b, tb = make_agg(kind, topo, g=g, timeout_ns=timeout_ns)
    seq = 0
    for now in range(0, 100 * data.draw(st.integers(1, 6)), 100):
        src = data.draw(st.integers(0, 5))
        dests = data.draw(st.lists(st.integers(0, 5), max_size=15))
        items = [mk_item(d, seq + i, created_at=now + i)
                 for i, d in enumerate(dests)]
        seq += len(items)
        a.insert_batch(src, items)
        for it in items:
            b.insert_batch(src, [it])
        if data.draw(st.booleans()):
            a.flush_expired(src, now + 60)
            b.flush_expired(src, now + 60)
        assert ta.messages == tb.messages
        assert ta.local == tb.local
        assert [a.next_deadline(o) for o in range(6)] == [
            b.next_deadline(o) for o in range(6)]
        assert buffer_heads(a) == buffer_heads(b)
        assert total_buffered(a) == total_buffered(b)
        assert [a.owner_buffered(o) for o in range(6)] == [
            b.owner_buffered(o) for o in range(6)]
        assert a.grouping_stats.touches == b.grouping_stats.touches



@given(st.data())
@settings(max_examples=80, deadline=None)
def test_pp_insert_batch_matches_one_item_chunks(data):
    """A pp chunk may fill a buffer several times and fill several buffers;
    its messages leave in the chunk order of their filling items whatever
    the seqs, with the effects one-item chunks have."""
    topo = Topology(1, 3, 2)
    w = topo.total_workers
    g = data.draw(st.integers(1, 6))
    timeout_ns = data.draw(st.none() | st.integers(1, 50))
    a, ta = make_agg(SchemeKind.PP, topo, g=g, timeout_ns=timeout_ns)
    b, tb = make_agg(SchemeKind.PP, topo, g=g, timeout_ns=timeout_ns)
    chunks = data.draw(st.lists(st.tuples(
        st.integers(0, w - 1),
        st.lists(st.tuples(st.integers(0, w - 1), st.integers(0, 500)),
                 max_size=4 * g),
        st.booleans()), min_size=1, max_size=6))
    seqs = iter(data.draw(st.permutations(
        range(sum(len(dests) for _, dests, _ in chunks)))))
    for now, (src, dests, expire) in zip(range(0, 600, 100), chunks):
        items = [mk_item(d, next(seqs), created_at=c) for d, c in dests]
        a.insert_batch(src, items)
        for it in items:
            b.insert_batch(src, [it])
        if expire:
            a.flush_expired(src, now + 60)
            b.flush_expired(src, now + 60)
        assert ta.messages == tb.messages
        assert ta.local == tb.local
        assert [a.next_deadline(o) for o in range(w)] == [
            b.next_deadline(o) for o in range(w)]
        assert buffer_heads(a) == buffer_heads(b)
        assert total_buffered(a) == total_buffered(b)
        assert [a.owner_buffered(o) for o in range(w)] == [
            b.owner_buffered(o) for o in range(w)]


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_insert_batch_checks_whole_chunk_first(kind):
    topo = Topology(1, 2, 2)
    agg, tr = make_agg(kind, topo, g=1)
    good = [mk_item(2, 0), mk_item(0, 1)]
    for bad in (4, -1):
        with pytest.raises(UsageError):
            agg.insert_batch(0, good + [mk_item(bad, 2)])
    assert tr.messages == [] and tr.local == []
    assert total_buffered(agg) == 0
    unbound = create_aggregator(kind, topo, 1, 8)
    for chunk in (good, []):
        with pytest.raises(SetupError):
            unbound.insert_batch(0, chunk)


# -- concurrent reads -------------------------------------------------------
@pytest.mark.parametrize("kind", ALL_KINDS)
def test_buffered_counts_readable_while_owners_fill(kind):
    # the threaded coordinator reads the counts while owner threads create
    # and seal buffers; a read must never see a row change size under it
    topo = Topology(1, 8, 2)
    w = topo.total_workers
    n = 2000
    agg, tr = make_agg(kind, topo, g=3)
    errors = []

    def owner(src):
        try:
            for seq in range(n):
                agg.insert_batch(src, [mk_item(seq % w, seq)])
                if seq % 5 == 0:
                    agg.flush(src, 0)
        except Exception as exc:
            errors.append(exc)

    threads = [threading.Thread(target=owner, args=(src,))
               for src in range(w)]
    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for th in threads:
            th.start()
        while any(th.is_alive() for th in threads):
            total_buffered(agg)
            for o in range(w):
                agg.owner_buffered(o)
    finally:
        sys.setswitchinterval(old)
        for th in threads:
            th.join(timeout=60)
    assert not any(th.is_alive() for th in threads)
    assert errors == []
    for o in agg.flush_owners():
        agg.flush(o, 0)
    assert total_buffered(agg) == 0
    assert sum(m.k for m in tr.messages) + len(tr.local) == w * n



@pytest.mark.parametrize("columns", [False, True], ids=["lists", "columns"])
def test_pp_threaded_chunks_lose_nothing(columns):
    # four owners insert pp chunks, lists or column chunks, into shared rows
    # while another thread flushes due buffers and reads deadlines and
    # counts: every seq ends up in exactly one place, a message, a local
    # delivery or a buffer
    topo = Topology(1, 3, 2)  # owners 0, 1 share process 0's row
    w = topo.total_workers
    owners = (0, 1, 2, 3)
    g = 3
    n = 500  # chunks per owner
    agg, tr = make_agg(SchemeKind.PP, topo, g=g, timeout_ns=50)
    errors = []
    done = threading.Event()
    inserted = []

    def owner(src):
        try:
            rng = random.Random(src)
            seqs = iter(range(src, 10**9, len(owners)))
            for _ in range(n):
                items = [mk_item(rng.randrange(w), seq, created_at=seq,
                                 payload=0)
                         for seq in islice(seqs, rng.randint(1, 3 * g))]
                if columns:
                    agg.insert_columns(src, Batch(np.array(
                        list(zip(*items)), dtype=np.int64)))
                else:
                    agg.insert_batch(src, items)
                inserted.extend(it.seq for it in items)
        except Exception as exc:
            errors.append(exc)

    def poller():
        try:
            now = 0
            while not done.is_set():
                now += 40
                for o in range(w):
                    agg.flush_expired(o, now)
                    agg.next_deadline(o)
                    agg.owner_buffered(o)
        except Exception as exc:
            errors.append(exc)

    threads = [threading.Thread(target=owner, args=(src,)) for src in owners]
    poll = threading.Thread(target=poller)
    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        poll.start()
        for th in threads:
            th.start()
        for th in threads:
            th.join(timeout=60)
    finally:
        done.set()
        poll.join(timeout=60)
        sys.setswitchinterval(old)
    assert not any(th.is_alive() for th in threads + [poll])
    assert errors == []
    for msg in tr.messages:
        assert 1 <= msg.k <= g and (msg.cause == "full") == (msg.k == g)
    assert {msg.cause for msg in tr.messages} == {"full", "flush"}
    got = [it.seq for m in tr.messages for it in m.items]
    got += [it.seq for _, items, _ in tr.local for it in items]
    got += [it.seq for row in agg._rows for buf in row.values()
            for it in (buf if type(buf) is list else buf.seal())]
    assert len(got) == len(inserted) == len(set(inserted))
    assert sorted(got) == sorted(inserted)

# -- conservation under random traffic --------------------------------------
@given(st.sampled_from(ALL_KINDS), st.data())
@settings(max_examples=40, deadline=None)
def test_exactly_once_hand_driven(kind, data):
    topo = Topology(1, 2, 2)
    g = data.draw(st.integers(1, 5))
    timeout_ns = data.draw(st.none() | st.integers(1, 10))
    agg, tr = make_agg(kind, topo, g=g, timeout_ns=timeout_ns)
    n = data.draw(st.integers(0, 40))
    sent = []
    for seq in range(n):
        src = data.draw(st.integers(0, 3))
        dest = data.draw(st.integers(0, 3))
        agg.insert_batch(src, [mk_item(dest, seq, created_at=seq)])
        sent.append((dest, seq))
        if data.draw(st.booleans()):
            agg.flush(src, now=seq)
        if data.draw(st.booleans()):
            agg.flush_expired(src, now=seq)
    for owner in agg.flush_owners():
        agg.flush(owner, now=n)
    got = [(d, it.seq) for d, items, _ in tr.local for it in items]
    for msg in tr.messages:
        k = len(msg.items)
        # full seals ship exactly g items; flushes ship a partial buffer
        assert (msg.cause == "full") == (k == g)
        if msg.cause == "flush":
            assert 1 <= k < g
        assert msg.sent_at >= max(it.created_at for it in msg.items)
        for d, items in agg.on_receive(msg):
            got.extend((d, it.seq) for it in items)
    assert Counter(got) == Counter(sent)
    assert total_buffered(agg) == 0
    assert [agg.next_deadline(o) for o in range(4)] == [None] * 4
    assert buffer_heads(agg) == []


# -- column chunks -----------------------------------------------------------
def _rows(items):
    """(dest, payload, created_at, seq) of each item of a list or a Batch."""
    return [tuple(it) for it in items]


def _outputs(agg, tr):
    """What a run sees of an aggregator, in order: each sent message's
    slots and item rows, and each local delivery."""
    return ([(m.origin, m.dest_scope, m.grouped, m.cause, m.sent_at,
              m.src_worker, _rows(m.items)) for m in tr.messages],
            [(d, _rows(items), now) for d, items, now in tr.local])


@given(st.sampled_from(["ww", "wps", "wsp", "pp", "none"]),
       st.sampled_from([Topology(1, 3, 2), Topology(2, 1, 3),
                        Topology(1, 1, 4), Topology(2, 2, 2)]),
       st.booleans(), st.data())
@settings(max_examples=120, deadline=None)
def test_column_chunks_match_item_chunks(scheme, topo, mixed, data):
    """insert_columns has insert_batch's effects on the same chunk: the same
    messages (slots and item rows), local deliveries, deadlines, counts,
    delivery plans and grouping touches. With mixed, some chunks go in as
    lists, so both kinds fill the same buffers."""
    kind, g = resolve_scheme(scheme)
    g = g or data.draw(st.sampled_from([1, 2, 5, 64]), label="g")
    timeout_ns = data.draw(st.none() | st.integers(1, 400), label="timeout")
    w = topo.total_workers
    a, ta = make_agg(kind, topo, g=g, timeout_ns=timeout_ns)
    b, tb = make_agg(kind, topo, g=g, timeout_ns=timeout_ns)
    now = [0] * w
    seq_next = list(range(w))
    for _ in range(data.draw(st.integers(1, 10), label="chunks")):
        src = data.draw(st.integers(0, w - 1))
        n = data.draw(st.sampled_from([0, 1, 1, 2, 7, 40, 150]))
        dests = data.draw(st.lists(st.integers(0, w - 1), min_size=n,
                                   max_size=n))
        payloads = data.draw(st.lists(st.integers(-5, 10**6), min_size=n,
                                      max_size=n))
        # stamped as a worker stamps a chunk with work_ns 10
        created = [now[src] + 10 * (i + 1) for i in range(n)]
        seqs = [seq_next[src] + w * i for i in range(n)]
        now[src] += 10 * n
        seq_next[src] += w * n
        items = [Item(*row) for row in zip(dests, payloads, created, seqs)]
        calls = ta.local_calls, tb.local_calls
        if mixed and data.draw(st.booleans()):
            a.insert_batch(src, items)
        else:
            a.insert_columns(src, Batch(np.array(
                [dests, payloads, created, seqs], dtype=np.int64)
                .reshape(4, n)))
        b.insert_batch(src, items)
        # each insert hands its same-process items over in at most one call
        assert ta.local_calls - calls[0] <= 1
        assert tb.local_calls - calls[1] <= 1
        op = data.draw(st.sampled_from(["none", "flush", "expire"]))
        if op == "flush":
            assert a.flush(src, now[src]) == b.flush(src, now[src])
        elif op == "expire":
            at = now[src] + data.draw(st.integers(0, 400))
            assert a.flush_expired(src, at) == b.flush_expired(src, at)
        assert _outputs(a, ta) == _outputs(b, tb)
        assert [a.next_deadline(o) for o in range(w)] == [
            b.next_deadline(o) for o in range(w)]
        assert [a.owner_buffered(o) for o in range(w)] == [
            b.owner_buffered(o) for o in range(w)]
    for o in a.flush_owners():
        assert a.flush(o, 10**6) == b.flush(o, 10**6)
    assert _outputs(a, ta) == _outputs(b, tb)
    assert total_buffered(a) == total_buffered(b) == 0
    if not mixed:  # the columns travel as a Batch through every scheme
        assert all(type(m.items) is Batch for m in ta.messages)
    plans = [[[(d, _rows(group)) for d, group in agg.on_receive(m)]
              for m in tr.messages] for agg, tr in ((a, ta), (b, tb))]
    assert plans[0] == plans[1]
    assert all(type(d) is int for plan in plans[0] for d, _ in plan)
    assert (a.grouping_stats.touches, a.grouping_stats.calls) == (
        b.grouping_stats.touches, b.grouping_stats.calls)


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_insert_columns_checks_whole_chunk_first(kind):
    # a column chunk is refused as its list chunk is, before any effect
    topo = Topology(1, 2, 2)
    agg, tr = make_agg(kind, topo, g=1)

    def chunk(dests):
        n = len(dests)
        return Batch(np.array([dests, [7] * n, range(n), range(n)],
                              dtype=np.int64).reshape(4, n))

    for dests in ([2, 0, 4], [-1, 2], [3, 9, -2]):
        with pytest.raises(UsageError) as want:
            agg.insert_batch(0, list(chunk(dests)))
        with pytest.raises(UsageError) as got:
            agg.insert_columns(0, chunk(dests))
        assert str(got.value) == str(want.value)
    assert tr.messages == [] and tr.local == []
    assert total_buffered(agg) == 0
    agg.insert_columns(0, chunk([]))
    assert tr.messages == [] and tr.local == []
    unbound = create_aggregator(kind, topo, 1, 8)
    for dests in ([2, 0], []):
        with pytest.raises(SetupError):
            unbound.insert_columns(0, chunk(dests))
    with pytest.raises(UsageError, match="destination worker 5"):
        unbound.insert_columns(0, chunk([5, 0]))


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_check_batch_one_item_chunk(kind):
    # a one-item chunk is checked on its one destination
    topo = Topology(1, 2, 2)
    agg, tr = make_agg(kind, topo, g=1)
    for bad in (4, -1):
        with pytest.raises(UsageError, match=f"destination worker {bad} "):
            agg.insert_batch(0, [mk_item(bad, 0)])
    agg.insert_batch(0, [mk_item(3, 0)])
    assert len(tr.messages) == 1
    with pytest.raises(SetupError):
        create_aggregator(kind, topo, 1, 8).insert_batch(0, [mk_item(3, 0)])


def test_group_items_of_a_batch_sorts_like_the_list():
    topo = Topology(1, 2, 3)
    items = [mk_item(4, 0, payload=1), mk_item(3, 1, payload=2),
             mk_item(4, 2, payload=3), mk_item(5, 3, payload=4),
             mk_item(3, 4, payload=5)]
    batch = Batch(np.array(list(zip(*items)), dtype=np.int64))
    sa, sb = GroupingStats(), GroupingStats()
    grouped = group_items(batch, topo, sa)
    assert type(grouped) is Batch
    assert _rows(grouped) == _rows(group_items(items, topo, sb))
    assert sa.touches == sb.touches == 5 + 3
    assert [(d, _rows(run)) for d, run in split_grouped(grouped)] == [
        (d, _rows(run)) for d, run in split_grouped(sorted(
            items, key=lambda it: it.dest))]
    for bad in ([3, 2], [4, 6]):
        with pytest.raises(UsageError):
            group_items(Batch(np.array([bad, [0, 0], [0, 0], [0, 1]],
                                       dtype=np.int64)), topo)
