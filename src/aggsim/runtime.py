"""Execution engine: worker contexts, simulated transport, quiescence.

Run modes:

* sequential: a single thread steps every worker in seeded shuffled rounds.
  Clocks are virtual integer ns that advance only through work (insert,
  delivery, explicit advance), and a run is bit-reproducible per seed.
* threaded: one OS thread per worker with wall clocks. Interleavings are
  real; transport costs are recorded but not slept.

Both engines share one worker context, one transport (_transmit makes one
pass per message: it refuses an arrival past int64 before it records any
of the message, then accounts it, plans its delivery, clamps its arrival
per channel, logs it in a traced run and queues its groups; local_deliver
queues same-process items), one delivery path (_drain, which takes each
item's latency sample), one quiescence path and the handle surface; they
differ only in the clock, the delivery queue, how queued work is counted
and how a run stalls and stops.
The threaded engine queues under its lock and counts each entry as
outstanding work, and hands _drain each group as it takes it, with the
worker's clock set to the wall time of the take.

Items travel as a list of Items, or on the column path as a Batch of int64
columns: a column chunk from ctx.insert_columns, stamped by the engine or
by the caller, stays a Batch through the buffers of every scheme, the
message and the delivery group, and _drain takes such a group's latency
samples in one vector op, from the times its sink returns as an int64
array or from the clock when it returns None. Both engines insert every
chunk the same way and differ only in its stamps: virtual ones in the
sequential engine, one wall-clock read per chunk in the threaded one. Each
insert hands its same-process items to local_deliver in one call, which
queues them as one (None, items) entry per destination, a tuple of Items
in chunk order.

Virtual time only moves forward: a stamped insert is refused unless no
stamp is below the worker's clock or the stamp before it, so no item is
stamped past its message's departure. _drain then delivers every group by
one rule: from the later of the clock and the group's arrival, item i is
delivered at t_i = max(t_{i-1}, created_at_i) + deliver_ns, so a
same-process item arrives at its own stamp.

A remote message pays alpha_ns + beta_ns_per_byte * bytes of network cost.
With the communication context enabled, each outgoing message first occupies
its origin process's single comm context for comm_cost_ns; that context is a
serial resource, so fine-grained traffic saturates at 1/comm_cost_ns messages
per ns per process. Channels between process pairs are FIFO: arrival stamps
are clamped monotone per (origin process, destination process) pair.

Quiescence holds when every driver is done, every delivery queue is empty,
the produced item count (issued sequence numbers) equals the delivered
count (sink calls returned) and nothing is buffered; merge derives
self-sends and per-scope inserts from the message log. Each engine's loop
(_run) goes until the run stalls: the sequential one when a round of turns
makes no progress, the threaded one when its exact count of outstanding
work (workers not parked, plus queue entries not yet taken) reaches zero,
which it cannot while a sink, step or flush still runs. It then runs the
shared idle-flush round, which seals every buffer before it sends any, and
goes on while the round sends. run_phase and await_quiescence then apply
one end check; await_quiescence, or a failed check, first stops the engine
(_stop), which joins the threaded workers. A stopped threaded run, also
one stopped by a timeout or a worker's error, refuses run_phase,
await_quiescence and broadcast_task with UsageError at once. With a flush
timeout set, each scheduling turn first flushes the worker's expired
buffers. A stalled sequential run then serves the deadlines before it
falls back to the idle-flush round: it heaps each flush owner's
next_deadline as (deadline, owner), and for the earliest moves that
owner's clock up to the deadline, flushes its expired buffers and pushes
its next deadline back, until none is left. A parked threaded worker
wakes at its scope's next_deadline, and at least every _PARK_S.

The sequential run_phase, await_quiescence and broadcast_task suspend
CPython's cyclic garbage collector while they run driver code and restore
the caller's setting on return, also when they raise. Without that, each
collection re-walks every Item waiting in buffers and delivery queues and
frees nothing. A caller that had the collector on gets it back with the
call's survivors moved, unwalked, into the oldest generation, so the young
collections the pause skipped do not walk them either; only where objects
are frozen already (by the caller, or at interpreter start) is the
collector just re-enabled. The threaded engine leaves the collector alone,
because the switch is process-wide and its worker threads run beside the
caller. A custom driver that builds reference cycles per item holds them
until the next full collection. The threaded engine refuses topologies of
more than MAX_THREADED_WORKERS workers (one OS thread each) before it
starts any.
"""
from __future__ import annotations

import gc
import heapq
import math
import queue
import random
import threading
import time
from array import array
from collections import defaultdict, deque
from contextlib import contextmanager
from dataclasses import dataclass
from itertools import count, repeat
from numbers import Integral
from operator import itemgetter, sub

import numpy as np

from .errors import InternalInvariantError, QuiescenceTimeout, UsageError
from .metrics import DEFAULT_SAMPLES_CAP, LatencyShard, MessageLog, merge
from .schemes import CAUSE_FULL, Aggregator
from .topology import Batch, Item, Topology

MODE_SEQUENTIAL = "sequential"
MODE_THREADED = "threaded"
RUN_MODES = (MODE_SEQUENTIAL, MODE_THREADED)

_DELIVER_BUDGET = 256  # max items drained per worker turn
_FOLD_SAMPLES = 4096  # pending latency samples that trigger a fold
_CREATED = itemgetter(2)
_SEQ = itemgetter(3)
MAX_THREADED_WORKERS = 512  # one OS thread per worker in threaded mode


@contextmanager
def _collector_paused():
    """Suspend the cyclic garbage collector; restore the caller's setting.

    A caller that had the collector on gets it back with the call's
    survivors already in the oldest generation: gc.freeze() then
    gc.unfreeze() splices every tracked object there without walking it and
    resets the young-generation count, so no young collection re-walks them
    at the next allocation. They are walked at the next full collection.
    When objects are frozen already (by the caller, or at interpreter
    start), that splice would unfreeze them too, so the collector is only
    re-enabled.
    """
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if was_enabled:
            if not gc.get_freeze_count():
                gc.freeze()
                gc.unfreeze()
            gc.enable()


@dataclass(frozen=True)
class TransportConfig:
    """Cost knobs for the simulated transport.

    comm_cost_ns is the per-message serial occupancy of the origin process's
    communication context; it only applies when comm_enabled. header_bytes,
    an int, is added to every message's byte count.
    """

    alpha_ns: float = 0.0
    beta_ns_per_byte: float = 0.0
    comm_cost_ns: float = 0.0
    comm_enabled: bool = False
    header_bytes: int = 0

    def __post_init__(self):
        # a byte count stays an int, so bytes_sent does too
        if not isinstance(self.header_bytes, int):
            raise UsageError(f"header_bytes must be an int, got "
                             f"{self.header_bytes!r}")
        for name in ("alpha_ns", "beta_ns_per_byte", "comm_cost_ns",
                     "header_bytes"):
            if not 0 <= getattr(self, name) < math.inf:
                raise UsageError(f"{name} must be finite and >= 0")


def check_budget(timeout_s) -> None:
    """Refuse a wall-clock budget other than None or a finite number of
    seconds > 0 with UsageError."""
    if timeout_s is not None and not 0 < timeout_s < math.inf:
        raise UsageError(f"timeout_s must be None or a finite number of "
                         f"seconds > 0, got {timeout_s!r}")


def parse_mode(token: str) -> str:
    t = str(token).lower()
    if t not in RUN_MODES:
        raise UsageError(f"unknown run mode {token!r}; expected {RUN_MODES}")
    return t


class WorkerProgram:
    """Per-worker driver. Subclass and override what the workload needs.

    step() runs when the worker has no queued deliveries; it should do a
    bounded chunk of work and return True, or return False once the driver
    has no more self-generated work (delivery sinks may still run after
    that). A worker that can receive items needs one delivery sink: on_item
    per item, or the batch sink on_items(ctx, items), which both engines
    hand each delivered group whole, but for a same-process entry that the
    sequential engine cuts at a turn's budget. A batch sink that neither
    reads the clock nor inserts returns None; any other returns each item's
    delivery time, the clock the per-item loop reads, and stamps its
    inserts in that sequence through a stamped ctx.insert_many or
    ctx.insert_columns: from
    t_{-1} = s, the clock at the group's start, item i is delivered at
    t_i = max(t_{i-1}, created_at_i) + deliver_ns, and each insert it
    makes adds work_ns. The engine delivers every group by that one rule.
    The max matters only for same-process items, each of which arrives at
    its own stamp: stamps never go back, so a message's items are stamped
    no later than it arrives.

    A group is a list of Items; a tuple of Items, when it holds one list or
    column chunk's same-process items, which each arrive at their own
    stamp; or a Batch when it came through the buffers from column chunks:
    the Batches of int64 columns that ctx.insert_columns builds from two
    arrays. A Batch iterates as Items, so a sink that loops over Items
    takes any group; for a Batch group it may return the times as a 1-d
    int64 array.
    """

    on_items = None

    def on_start(self, ctx) -> None:
        pass

    def step(self, ctx) -> bool:
        return False

    def on_item(self, ctx, item: Item) -> None:
        raise NotImplementedError("driver received an item but has no sink")


# ---------------------------------------------------------------------------
# worker contexts
# ---------------------------------------------------------------------------

class _Worker:
    """Worker context on a virtual clock; also the ctx drivers see.

    queue holds the worker's pending deliveries: a deque of (arrival, items)
    message groups and (None, items) same-process entries in the
    sequential engine, a _TQueue in the threaded one. Worker wid
    issues the sequence numbers wid, wid + seq_stride, ...
    """

    __slots__ = ("wid", "now", "queue", "driver", "driver_done", "batch_sink",
                 "rng", "work_ns", "deliver_ns", "delivered", "shard",
                 "seq_next", "seq_stride", "dl_log", "_agg", "_epoch",
                 "thread")

    def __init__(self, wid, rng, work_ns, deliver_ns, shard, stride,
                 record_items, agg, queue, epoch):
        self.wid = wid
        self.now = 0
        self.queue = queue
        self.driver = None
        self.driver_done = False
        self.batch_sink = None
        self.rng = rng
        self.work_ns = work_ns
        self.deliver_ns = deliver_ns
        self.delivered = 0
        self.shard = shard
        self.seq_next = wid
        self.seq_stride = stride
        self.dl_log = [] if record_items else None
        self._agg = agg
        self._epoch = epoch
        self.thread = None

    @property
    def produced(self) -> int:
        """Items this worker has inserted."""
        return (self.seq_next - self.wid) // self.seq_stride

    def time_ns(self) -> int:
        return self.now

    def advance(self, ns: int) -> None:
        # an int64 sample buffer takes no float: keep the clock an int64
        if not (isinstance(ns, Integral) and 0 <= ns < 2**63 - self.now):
            raise UsageError(f"cannot advance a clock at {self.now} ns by "
                             f"{ns!r} ns; it stays a count within int64")
        self.now += ns

    def insert(self, dest: int, payload) -> None:
        self.insert_many((dest,), (payload,))

    def insert_many(self, dests, payloads, stamps=None) -> None:
        """insert(dests[i], payloads[i]) for each i, in order, as one chunk.

        Item i takes the i-th next seq and is stamped stamps[i], an int
        within int64 that is not below the clock or stamps[i-1], or, when
        stamps is None, now + (i+1)*work_ns; the clock ends at the last
        stamp.
        """
        if stamps is None:
            wns = self.work_ns
            self._insert(dests, payloads, count(self.now + wns, wns))
            return
        try:
            checked = array("q", stamps)
        except (TypeError, OverflowError):
            raise _unstamped(stamps) from None
        _check_forward(self.now, checked, len(dests))
        self._insert(dests, payloads, checked)

    def insert_columns(self, dests, payloads, stamps=None) -> None:
        """insert_many of two int64 arrays, as one column chunk: a Batch
        stamped with numpy arithmetic, now + work_ns*(1..n), or stamps, an
        int64 array that never goes back, and seqs seq_next +
        stride*(0..n-1), with no Item per item. The clock ends at the last
        stamp. The aggregator takes it as a Batch, so the columns travel on
        to the sink. Each column is a 1-d int64 array, all of one length,
        and stamps passes the check insert_many's do; else UsageError."""
        for a in (dests, payloads, stamps)[:2 if stamps is None else 3]:
            if not (isinstance(a, np.ndarray) and a.dtype == np.int64
                    and a.ndim == 1):
                what = (f"a {a.ndim}-d {a.dtype} array"
                        if isinstance(a, np.ndarray) else type(a).__name__)
                raise UsageError(f"insert_columns takes 1-d int64 arrays, "
                                 f"got {what}")
        n = len(dests)
        if len(payloads) != n:
            raise UsageError(f"{n} destinations but {len(payloads)} payloads")
        if stamps is not None:
            _check_forward(self.now, stamps.tolist(), n)
        if not n:
            return
        stride = self.seq_stride
        data = np.empty((4, n), dtype=np.int64)
        data[0] = dests
        data[1] = payloads
        ramp = np.arange(n, dtype=np.int64)
        data[2] = self._column_stamps(ramp, stamps)
        np.multiply(ramp, stride, out=data[3])
        data[3] += self.seq_next
        self._agg.insert_columns(self.wid, Batch(data))
        self.now = int(data[2, -1])
        self.seq_next += n * stride

    def _column_stamps(self, ramp, stamps):
        """A column chunk's stamps: stamps, checked already, or now +
        work_ns*(ramp + 1), refused past int64."""
        if stamps is not None:
            return stamps
        wns = self.work_ns
        last = self.now + len(ramp) * wns
        if last >= 2**63:
            raise _unstamped((last,))
        return ramp * wns + (self.now + wns)

    # The clock and the seq counter move only once the aggregator accepted
    # the chunk, so a refused insert leaves no trace in the run. The stamps
    # are ints that never go back: spawn checks work_ns, insert_many the
    # stamps it is given, and the last one, so every one, is within int64.
    def _insert(self, dests, payloads, stamps) -> None:
        n = len(dests)
        if len(payloads) != n:
            raise UsageError(f"{n} destinations but {len(payloads)} payloads")
        if not n:
            return
        stride = self.seq_stride
        # tuple.__new__ builds each Item in C, skipping Item.__new__'s frame;
        # one item skips the iterators, which cost it more than the Item
        if n == 1:
            items = [tuple.__new__(Item, (dests[0], payloads[0],
                                          next(iter(stamps)), self.seq_next))]
        else:
            items = list(map(tuple.__new__, repeat(Item), zip(
                dests, payloads, stamps, count(self.seq_next, stride))))
        last = items[-1]
        if last[2] >= 2**63:
            raise _unstamped((last[2],))
        self._agg.insert_batch(self.wid, items)
        self.now = last[2]
        self.seq_next = last[3] + stride

    def flush(self) -> int:
        return self._agg.flush(self.wid, self.time_ns())


class _WallWorker(_Worker):
    """Worker context on the wall clock (threaded engine).

    time_ns reads the wall clock, and every item of an insert, a list or a
    column chunk, is stamped with one wall-clock read taken as the chunk is
    inserted, whatever stamps the caller gave; given stamps are checked
    first all the same. now is the clock the shared delivery path reads:
    the worker sets it to the wall time at which it takes a group, and
    deliveries (deliver_ns per item), advance and inserts (their wall
    stamp) move it from there, so a group's latency samples are estimates
    anchored at its take.
    """

    __slots__ = ()

    def time_ns(self) -> int:
        return time.monotonic_ns() - self._epoch

    def _insert(self, dests, payloads, stamps) -> None:
        super()._insert(dests, payloads, repeat(self.time_ns()))

    def _column_stamps(self, ramp, stamps):
        return self.time_ns()


def _check_forward(now, stamps, n) -> None:
    """Refuse with UsageError stamps, ints in chunk order, unless they are
    n, one per destination, or the first of them below now, the worker's
    clock, or below the stamp before it. Stamps never go back, so none is
    negative, and each message departs no earlier than its items' stamps."""
    if len(stamps) != n:
        raise UsageError(f"{n} destinations but {len(stamps)} stamps")
    prev = now
    for i, t in enumerate(stamps):
        if t < prev:
            raise UsageError(f"insert stamp {t} is below "
                             + ("the stamp before it" if i else "the clock")
                             + f", {prev}; insert stamps never go back")
        prev = t


def _unstamped(stamps):
    t = next(t for t in stamps
             if not isinstance(t, Integral) or not -2**63 <= t < 2**63)
    return UsageError(f"insert stamp {t!r} is not an integer ns within int64")


def _sink_array(times, items):
    """A batch sink's array of delivery times, as _drain takes it: the
    array itself for a Batch group with one time per item, none negative;
    else its list, which _drain checks as it checks a returned list. Any
    array but a 1-d int64 one is a UsageError."""
    if not (times.dtype == np.int64 and times.ndim == 1):
        raise UsageError(f"batch sink returned a {times.ndim}-d "
                         f"{times.dtype} array of delivery times; an array "
                         "of them must be 1-d int64")
    if (type(items) is Batch and len(times) == len(items)
            and times.min() >= 0):
        return times
    return times.tolist()


def _take_columns(w, samples, items):
    """Deliver the Batch group items to w with its latency samples, an
    int64 array, and log its seq column."""
    w.shard.pending.frombytes(samples.tobytes())
    w.delivered += len(samples)
    if w.dl_log is not None:
        w.dl_log.extend(items.seq.tolist())


def _miscounted(times, items):
    return UsageError(f"batch sink returned {len(times)} delivery times "
                      f"for {len(items)} items")


def _unsampled(times, items, by="batch sink returned"):
    """The UsageError naming the first delivery time that is not an integer
    ns within int64, or whose latency sample is not."""
    for t, it in zip(times, items):
        try:
            array("q", (t, t - it[2]))
        except (TypeError, OverflowError):
            break
    return UsageError(f"{by} delivery time {t!r} for an item sent at "
                      f"{it[2]!r}; delivery times are integer ns, and each "
                      "time and latency sample must fit in int64")


# ---------------------------------------------------------------------------
# shared wiring
# ---------------------------------------------------------------------------

class _BaseRun:
    """Shared wiring for both engines (a RunHandle in the public API)."""

    mode = "?"
    _context = _Worker
    _queue = deque      # delivery queue factory
    _epoch = 0          # wall-clock origin, threaded engine only

    def __init__(self, topo: Topology, agg: Aggregator, cfg: TransportConfig,
                 program, *, seed, work_ns, deliver_ns, record_items, trace):
        if agg.topo != topo:
            raise UsageError("aggregator topology does not match the run")
        agg.bind(self)
        self._topo = topo
        self._agg = agg
        self._cfg = cfg or TransportConfig()
        self._seed = seed
        self._deliver_ns = deliver_ns
        w = topo.total_workers
        n = topo.total_processes
        self._n_procs = n
        self._t = topo.workers_per_proc
        self._worker_scoped = agg.scope_kind == "worker"
        self._item_bytes = agg.item_bytes
        self._log = MessageLog(w if self._worker_scoped else n, trace)
        self._comm_ready = [0.0] * n
        self._comm_count = [0] * n
        self._comm_first = [None] * n
        # each channel's last arrival, at [origin][dest_proc]
        self._chan_last = [[0] * n for _ in range(n)]
        # a traced run logs each message's (origin, dest process, arrival)
        self._arrivals = [] if trace else None
        self._quiesced = False
        self._tns_active = agg.flush_timeout_ns is not None
        cap = max(1, DEFAULT_SAMPLES_CAP // w)
        self._workers = []
        for wid in range(w):
            rng = np.random.default_rng(
                np.random.SeedSequence(entropy=seed, spawn_key=(1, wid)))
            shard = LatencyShard(cap, (seed, 2, wid))
            ctx = self._context(wid, rng, work_ns, deliver_ns, shard, w,
                                record_items, agg, self._queue(), self._epoch)
            ctx.driver = program(wid)
            ctx.batch_sink = ctx.driver.on_items
            self._workers.append(ctx)

    # -- public handle surface -------------------------------------------
    @property
    def topology(self) -> Topology:
        return self._topo

    @property
    def aggregator(self) -> Aggregator:
        return self._agg

    @property
    def workers(self):
        return self._workers

    @property
    def trace(self):
        return self._log.trace

    @property
    def arrival_log(self):
        return self._arrivals

    def comm_stats(self) -> dict:
        per = []
        for p in range(self._n_procs):
            per.append({
                "process": p,
                "messages": self._comm_count[p],
                "first_start_ns": self._comm_first[p],
                "last_done_ns": self._comm_ready[p],
                "busy_ns": self._comm_count[p] * self._cfg.comm_cost_ns,
            })
        return {"enabled": self._cfg.comm_enabled, "per_process": per}

    def summarize(self):
        workers = self._workers
        return merge(
            self._log, [w.shard for w in workers],
            scheme=self._agg.kind.value,
            mode=self.mode, seed=self._seed,
            topo=self._topo.to_config(), g=self._agg.g,
            item_bytes=self._agg.item_bytes,
            produced=sum(w.produced for w in workers),
            delivered=sum(w.delivered for w in workers),
            runtime_ns=self._runtime_ns(),
            quiesced=self._quiesced,
        )

    def inserted_seqs(self):
        out = []
        for w in self._workers:
            out.extend(range(w.wid, w.seq_next, w.seq_stride))
        return out

    def delivered_seqs(self):
        out = []
        for w in self._workers:
            if w.dl_log is not None:
                out.extend(w.dl_log)
        return out

    def _diagnostics(self) -> dict:
        workers = self._workers
        agg = self._agg
        by_owner = {o: n for o in agg.flush_owners()
                    if (n := agg.owner_buffered(o))}
        return {
            "produced": sum(w.produced for w in workers),
            "delivered": sum(w.delivered for w in workers),
            "drivers_pending": [w.wid for w in workers if not w.driver_done],
            "queue_depths": {w.wid: len(w.queue) for w in workers
                             if w.queue},
            "buffered_total": sum(by_owner.values()),
            "buffered_by_owner": by_owner,
        }

    def _runtime_ns(self):
        raise NotImplementedError

    # -- quiescence: the one idle-flush round and end check ----------------
    def run_phase(self, timeout_s=None):
        """Run to quiescence (with idle-flush rounds) without finalizing.
        timeout_s, the wall-clock budget, is None (no budget) or a finite
        number of seconds > 0, as for await_quiescence."""
        self._settle(timeout_s, False)

    def await_quiescence(self, timeout_s=None):
        self._settle(timeout_s, True)
        self._quiesced = True
        return self.summarize()

    def _settle(self, timeout_s, final):
        # a budget no clock can honour is refused before the run moves, so a
        # later call can still settle it
        check_budget(timeout_s)
        # stop when final or short of quiescence; a worker's error goes first
        self._run(timeout_s)
        short = None if self._is_quiescent() else self._diagnostics()
        if final or short:
            self._stop()
        if short:
            raise InternalInvariantError(
                f"run ended short of quiescence: {short}")

    def _is_quiescent(self):
        workers = self._workers
        agg = self._agg
        return (all(w.driver_done and not w.queue for w in workers)
                and sum(w.produced for w in workers)
                == sum(w.delivered for w in workers)
                and not any(map(agg.owner_buffered, agg.flush_owners())))

    def _flush_round(self):
        """Flush every owner at its time_ns(), then transmit what that
        sealed as one list, in seal order; returns the messages sent.
        Sending only after the last seal, no sink it wakes can refill a
        buffer of the round."""
        agg = self._agg
        workers = self._workers
        held = self._held = []
        try:
            for owner in agg.flush_owners():
                agg.flush(owner, workers[owner].time_ns())
        finally:
            self._held = None
        if held:
            self._transmit(held)
        return len(held)

    def _stop(self):
        pass

    # -- transport: per-message cost and accounting ------------------------
    _held = None  # an idle-flush round's sealed messages, not yet sent

    def send(self, msg):
        """The transport's only per-message entry, called once per sealed
        message in emit order. Outside an idle-flush round it transmits msg
        at once; a round holds its messages and transmits them as one list
        after its last seal."""
        held = self._held
        if held is None:
            self._transmit((msg,))
        else:
            held.append(msg)

    def local_deliver(self, items) -> int:
        """Queue a chunk's same-process items, in chunk order, as one (None,
        items) entry per destination, items a tuple; _drain delivers each
        item from its own stamp on. Returns the entries queued."""
        runs = defaultdict(list)
        for it in items:
            runs[it[0]].append(it)
        workers = self._workers
        for dest, run in runs.items():
            workers[dest].queue.append((None, tuple(run)))
        return len(runs)

    def _transmit(self, msgs) -> int:
        """Transmit msgs in list order, one pass per message; returns the
        entries queued. It is the one transport path of both engines and
        reads the messages' slots directly.

        A message reaches its destination process at its departure, then
        the comm context if enabled, then alpha + beta * bytes, in ns on the
        origin's clock, each float rounded as one message at a time rounds
        it. A message arriving at 2**63 ns or more is refused: nothing of
        it is recorded or queued, and once the list's other messages are,
        _refuse_arrival raises the first refusal, so an idle-flush round
        whose seals emptied their buffers loses no other message. Otherwise
        the message's items, bytes, cost, trace entry and comm-context time
        are recorded, its delivery plan is made, and its groups are queued
        at its arrival, rounded to an int ns no earlier than its departure,
        clamped monotone per channel and, in a traced run, logged. The byte
        and cost sums reach the log once per list.
        """
        cfg = self._cfg
        alpha = cfg.alpha_ns
        beta = cfg.beta_ns_per_byte
        header = cfg.header_bytes
        comm = cfg.comm_enabled
        comm_ns = cfg.comm_cost_ns
        ready = self._comm_ready
        started = self._comm_count
        item_bytes = self._item_bytes
        worker_scoped = self._worker_scoped
        log = self._log
        by_scope = log.items_by_scope
        full = log.msgs_full
        flushed = log.msgs_flush
        trace = log.trace
        arrivals = self._arrivals
        on_receive = self._agg.on_receive
        chan_last = self._chan_last
        t = self._t
        workers = self._workers
        nbytes_sum = 0
        cost = log.transport_cost_ns
        queued = 0
        refused = None
        try:
            for msg in msgs:
                po, dest_scope, items, grouped, cause, sent_at, src = msg
                k = len(items)
                nbytes = k * item_bytes + header
                net = alpha + beta * nbytes
                base = float(sent_at)
                if comm:
                    start = ready[po]
                    if base > start:
                        start = base
                    base = start + comm_ns
                arrival = base + net
                # an arrival below 2.0**63 rounds to an int below 2**63, as
                # floats there are 1024 apart
                if arrival >= 2.0**63:
                    if refused is None:
                        refused = UsageError(
                            f"a message sent at {sent_at} ns with a network "
                            f"cost of {net} ns arrives at {int(arrival)} ns; "
                            "arrival times must fit in int64")
                    continue
                scope = src if worker_scoped else po
                by_scope[scope] += k
                nbytes_sum += nbytes
                cost += net
                if cause == CAUSE_FULL:
                    full[scope] += 1
                else:
                    flushed[scope] += 1
                if trace is not None:
                    trace.append({"origin": po, "dest_scope": dest_scope,
                                  "k": k, "cause": cause, "grouped": grouped,
                                  "sent_at": sent_at})
                if comm:
                    ready[po] = base
                    if not started[po]:
                        self._comm_first[po] = start
                    started[po] += 1
                plan = on_receive(msg)
                arrival = int(arrival + 0.5)
                if arrival < sent_at:  # a float past 2**53 may round below
                    arrival = sent_at
                pd = plan[0][0] // t
                last = chan_last[po]
                if arrival < last[pd]:
                    arrival = last[pd]
                else:
                    last[pd] = arrival
                if arrivals is not None:
                    arrivals.append((po, pd, arrival))
                queued += len(plan)
                for wid, group in plan:
                    workers[wid].queue.append((arrival, group))
        finally:
            log.bytes_sent += nbytes_sum
            log.transport_cost_ns = cost
        if refused is not None:
            self._refuse_arrival(refused, queued)
        return queued

    def _refuse_arrival(self, refused, queued):
        """Raise a transmit's first refusal, once the list's other messages
        are queued, as queued entries."""
        raise refused

    # -- delivery: the one path of both engines ---------------------------
    def _drain(self, w, queue):
        """Deliver queue's entries to worker w until _DELIVER_BUDGET items
        are done; returns whether any was. A message group, (arrival,
        items), is delivered whole from its arrival on; a same-process
        entry, (None, items), that would pass the budget is cut there, and
        its rest goes back to the front. Every group goes by one rule: from
        t_{-1}, the later of the clock and the group's arrival, item i is
        delivered at t_i = max(t_{i-1}, created_at_i) + deliver_ns, and a
        time past int64 is refused. Stamps never go back, so the max applies
        only to same-process items, each arriving at its own stamp. on_item
        gets the clock at each item's delivery and may move it. A Batch
        group whose batch sink returns None, or its times as an int64 array,
        takes its samples and seqs as columns."""
        dns = self._deliver_ns
        done = 0
        pending = w.shard.pending
        sample = pending.append
        dl_log = w.dl_log
        batch_sink = w.batch_sink
        on_item = w.driver.on_item if batch_sink is None else None
        while done < _DELIVER_BUDGET and queue:
            arrival, items = queue.popleft()
            k = len(items)
            if arrival is None:
                if k > _DELIVER_BUDGET - done:
                    k = _DELIVER_BUDGET - done
                    queue.appendleft((None, items[k:]))
                    items = items[:k]
            elif arrival > w.now:
                w.now = arrival
            done += k
            now = w.now
            times = None if on_item else batch_sink(w, items)
            if times is None:
                if (on_item is None and type(items) is Batch
                        and now + k * dns < 2**63):
                    # a message's items are stamped no later than it arrives,
                    # so item i is delivered at now + (i+1)*dns; the times
                    # fit in int64 and the stamps are >= 0, so samples do too
                    samples = np.arange(1, k + 1, dtype=np.int64)
                    samples *= dns
                    samples += now
                    samples -= items.created_at
                    w.now = now + k * dns
                    _take_columns(w, samples, items)
                    continue
                for it in items:
                    c = it[2]
                    if c > now:
                        now = c
                    now += dns
                    if now >= 2**63:  # stamps are >= 0, so samples fit too
                        raise _unsampled((now,), (it,), "engine reached")
                    sample(now - c)
                    if on_item is not None:  # it may read and move the clock
                        w.now = now
                        on_item(w, it)
                        now = w.now
                w.now = now
            else:
                if type(times) is np.ndarray:
                    times = _sink_array(times, items)
                    if type(times) is np.ndarray:
                        # these times and the stamps are >= 0, so each
                        # sample fits in int64
                        last = int(times[-1])
                        if last > w.now:  # else the sink's last stamp
                            w.now = last
                        _take_columns(w, times - items.created_at, items)
                        continue
                if len(times) != k:
                    raise _miscounted(times, items)
                if times[-1] >= 2**63:  # the clock stays int64 too
                    raise _unsampled(times, items)
                if times[-1] > w.now:  # else the sink's last stamp
                    w.now = times[-1]
                try:
                    if k == 1:
                        sample(times[0] - items[0][2])
                    else:
                        pending.extend(map(sub, times, map(_CREATED, items)))
                except (TypeError, OverflowError):
                    raise _unsampled(times, items) from None
            w.delivered += k
            if dl_log is not None:
                dl_log.extend(map(_SEQ, items))
        if done:
            # deliveries may hand the driver new local work; poll it again
            w.driver_done = False
            if len(pending) >= _FOLD_SAMPLES:
                w.shard.fold()
        return done > 0


# ---------------------------------------------------------------------------
# sequential engine
# ---------------------------------------------------------------------------

class SequentialRun(_BaseRun):
    """Deterministic single-thread engine over virtual time."""

    mode = MODE_SEQUENTIAL

    def __init__(self, topo, agg, cfg, program, **kw):
        super().__init__(topo, agg, cfg, program, **kw)
        self._sched = random.Random(repr((self._seed, 0x5EED)))
        for ctx in self._workers:
            ctx.driver.on_start(ctx)

    # -- stepping -----------------------------------------------------------
    def _round(self, order):
        workers = self._workers
        agg = self._agg
        tns = self._tns_active
        progress = False
        for wid in order:
            w = workers[wid]
            # deadlines fire at every scheduling turn, busy or not
            if tns and agg.flush_expired(wid, w.now):
                progress = True
            if w.queue:
                if self._drain(w, w.queue):
                    progress = True
            elif not w.driver_done:
                if w.driver.step(w):
                    progress = True
                else:
                    w.driver_done = True
        return progress

    def _try_unstall(self):
        agg = self._agg
        if self._is_quiescent():
            return False
        if self._tns_active:
            # each owner's earliest deadline, in (deadline, owner) order; an
            # unstall fills no buffer, so an owner's next deadline changes
            # only by its own flush
            due = [(ddl, o) for o in agg.flush_owners()
                   if (ddl := agg.next_deadline(o)) is not None]
            heapq.heapify(due)
            emitted = 0
            while due:
                ddl, owner = due[0]
                w = self._workers[owner]
                if ddl > w.now:
                    w.now = ddl
                emitted += agg.flush_expired(owner, w.now)
                ddl = agg.next_deadline(owner)
                if ddl is None:
                    heapq.heappop(due)
                else:
                    heapq.heapreplace(due, (ddl, owner))
            if emitted:
                return True
        return self._flush_round() > 0

    def _run(self, timeout_s):
        t0 = time.monotonic()
        order = list(range(len(self._workers)))
        shuffle = self._sched.shuffle
        rounds = 0
        with _collector_paused():
            while True:
                shuffle(order)
                progress = self._round(order)
                if not progress and not self._try_unstall():
                    break
                rounds += 1
                if timeout_s is not None and rounds % 256 == 0:
                    if time.monotonic() - t0 > timeout_s:
                        raise QuiescenceTimeout(
                            f"run exceeded {timeout_s}s wall budget",
                            self._diagnostics())

    # -- handle surface -----------------------------------------------------
    def broadcast_task(self, fn):
        """Run fn(ctx) once on every worker context; returns the results."""
        with _collector_paused():
            return [fn(w) for w in self._workers]

    def _runtime_ns(self):
        return max((w.now for w in self._workers), default=0)


# ---------------------------------------------------------------------------
# threaded engine
# ---------------------------------------------------------------------------

# a task or stop entry's tag; every other entry is a delivery, tagged with
# its arrival or None, which no sentinel equals
_T_TASK = object()
_T_STOP = object()
_ACK_TIMEOUT_S = 10.0  # wait for workers to ack a task or stop
_PARK_S = 0.005  # longest park of a worker under a flush timeout


class _TQueue(queue.SimpleQueue):
    __len__ = queue.SimpleQueue.qsize
    append = queue.SimpleQueue.put


class ThreadedRun(_BaseRun):
    """One OS thread per worker; wall clocks; costs recorded, not slept.

    _busy, guarded by _tlock, counts the workers not parked in a blocking
    get plus the queue entries put and not yet taken (Dijkstra & Scholten,
    IPL 1980). Entries are put under _tlock and counted before it is
    released, and every take is counted under it, so the count is exact
    whenever _tlock is free. Workers put entries only while busy, so once
    _busy is 0 under _tlock no sink, step or flush runs, and no buffer
    changes until the coordinator puts an entry. _run then runs the shared
    idle-flush round under _tlock; _stop joins the workers and raises a
    worker's error. A stopped run refuses run_phase, await_quiescence and
    broadcast_task with UsageError at once.
    """

    mode = MODE_THREADED
    _context = _WallWorker
    _queue = _TQueue

    def __init__(self, topo, agg, cfg, program, **kw):
        if topo.total_workers > MAX_THREADED_WORKERS:
            raise UsageError(
                f"threaded mode runs one thread per worker and allows at most "
                f"{MAX_THREADED_WORKERS} workers; this topology has "
                f"{topo.total_workers}")
        self._epoch = time.monotonic_ns()
        self._tlock = threading.RLock()  # a flush round sends under it
        self._idle = threading.Condition(self._tlock)
        self._busy = topo.total_workers
        self._error = None
        self._stopped = False
        super().__init__(topo, agg, cfg, program, **kw)
        for ctx in self._workers:
            ctx.thread = threading.Thread(target=self._wloop, args=(ctx,),
                                          name=f"worker-{ctx.wid}",
                                          daemon=True)
        for ctx in self._workers:
            ctx.thread.start()

    # -- transport: the shared queueing, counted as outstanding work --------
    def local_deliver(self, items):
        with self._tlock:
            self._busy += super().local_deliver(items)

    def _transmit(self, msgs):
        with self._tlock:
            self._busy += super()._transmit(msgs)

    def _refuse_arrival(self, refused, queued):
        self._busy += queued  # under _tlock, which _transmit holds
        raise refused

    # -- worker thread --------------------------------------------------------
    def _wloop(self, w):
        agg = self._agg
        idle = self._idle
        try:
            w.driver.on_start(w)
            q = w.queue
            tns = self._tns_active
            park_s = None  # without a timeout, only a queue entry brings work
            while True:
                if tns:
                    agg.flush_expired(w.wid, w.time_ns())
                try:
                    e = q.get_nowait()
                except queue.Empty:
                    if not w.driver_done:
                        if not w.driver.step(w):
                            w.driver_done = True
                        continue
                    if tns:
                        # wake at the scope's earliest deadline; the cap
                        # covers pp buffers that other workers fill
                        ddl = agg.next_deadline(w.wid)
                        park_s = _PARK_S if ddl is None else min(
                            _PARK_S, max(0, ddl - w.time_ns()) * 1e-9)
                    with idle:
                        self._busy -= 1
                        if not self._busy:
                            idle.notify_all()
                    try:
                        # waking with an entry: busy again, entry taken
                        e = q.get(timeout=park_s)
                    except queue.Empty:
                        with idle:
                            self._busy += 1
                        continue
                else:
                    with idle:
                        self._busy -= 1
                tag = e[0]
                if tag is _T_TASK:
                    e[2].append(e[1](w))
                    with idle:
                        idle.notify_all()
                elif tag is _T_STOP:
                    break
                else:
                    # the group arrives at its take, on the wall clock
                    now = w.now = w.time_ns()
                    self._drain(w, deque([(now, e[1])]))
        except BaseException as exc:  # propagate through the coordinator
            with idle:
                if self._error is None:
                    self._error = exc
                idle.notify_all()

    # -- coordinator ----------------------------------------------------------
    def _raise_pending(self):
        if self._error is not None:
            self._shutdown()
            raise self._error

    def _refuse_if_stopped(self):
        if self._stopped:  # its workers are gone: no entry would be taken
            raise UsageError("this threaded run has stopped") from self._error

    def _run(self, timeout_s):
        """Wait until every worker is parked and no entry is outstanding,
        then run the idle-flush round; again while the round sends."""
        self._refuse_if_stopped()
        deadline = None if timeout_s is None else time.monotonic() + timeout_s
        while True:
            try:
                with self._idle:
                    settled = self._idle.wait_for(
                        lambda: not self._busy or self._error is not None,
                        None if deadline is None
                        else deadline - time.monotonic())
                    sent = (not self._busy and self._error is None
                            and self._flush_round())
            except BaseException:
                self._shutdown()
                raise
            self._raise_pending()
            if not settled:
                self._timed_out(f"run exceeded {timeout_s}s wall budget")
            if not sent:
                return

    def _timed_out(self, what):
        diagnostics = self._diagnostics()
        self._stop()  # a worker's own error takes precedence
        raise QuiescenceTimeout(what, diagnostics)

    def _stop(self):
        self._shutdown()
        self._raise_pending()

    def _shutdown(self):
        # a worker still busy after the deadline stops once it is done
        if self._stopped:
            return
        self._stopped = True
        with self._tlock:
            for w in self._workers:
                w.queue.append((_T_STOP,))
            self._busy += len(self._workers)
        deadline = time.monotonic() + _ACK_TIMEOUT_S
        for w in self._workers:
            w.thread.join(timeout=max(0.0, deadline - time.monotonic()))

    # -- handle surface --------------------------------------------------------
    def broadcast_task(self, fn):
        """Run fn(ctx) once on every worker thread; returns the results.
        Each worker appends its result to its box and wakes _idle, as a
        worker's error does, which is raised at once."""
        self._refuse_if_stopped()
        boxes = [[] for _ in self._workers]
        with self._idle:
            for w, box in zip(self._workers, boxes):
                w.queue.append((_T_TASK, fn, box))
            self._busy += len(boxes)
            acked = self._idle.wait_for(
                lambda: all(boxes) or self._error is not None,
                _ACK_TIMEOUT_S)
        self._raise_pending()
        if not acked:
            self._timed_out("task did not acknowledge")
        return [box[0] for box in boxes]

    def _runtime_ns(self):
        return time.monotonic_ns() - self._epoch


RunHandle = _BaseRun  # public name for type hints


def spawn(topo: Topology, agg: Aggregator, cfg: TransportConfig = None, *,
          mode: str = MODE_SEQUENTIAL, program, seed: int = 0,
          work_ns: int = 100, deliver_ns: int = 50,
          record_items: bool = False, trace: bool = False) -> RunHandle:
    """Create worker contexts, wire the aggregator, and start the run.

    program is a callable worker_id -> WorkerProgram. work_ns advances the
    inserting worker's clock per insert and deliver_ns the destination's per
    delivered item, in both engines; both, and seed, must be non-negative
    ints, not bools, and a bad one is refused before any worker is built.
    In threaded mode a delivered group starts at the wall time its worker
    takes it, so its items' delivery times and latency samples are
    estimates anchored there, and inserts are stamped with the wall clock.
    Threaded mode refuses more than MAX_THREADED_WORKERS workers. trace
    keeps one trace entry per message and, in arrival_log, each message's
    (origin process, destination process, arrival) as modelled and
    clamped; record_items logs each delivered item's seq. Returns the run
    handle; call await_quiescence on it. A threaded run stops there, at a
    timeout or at a worker's error, and then refuses run_phase,
    await_quiescence and broadcast_task with UsageError.
    """
    # the clock and every stamp insert_many derives from work_ns stay ints;
    # each worker's rng draws its entropy from seed
    for name, v in (("work_ns", work_ns), ("deliver_ns", deliver_ns),
                    ("seed", seed)):
        if not isinstance(v, int) or isinstance(v, bool) or v < 0:
            raise UsageError(f"{name} must be a non-negative int, got {v!r}")
    engine = (SequentialRun if parse_mode(mode) == MODE_SEQUENTIAL
              else ThreadedRun)
    return engine(topo, agg, cfg, program, seed=seed, work_ns=work_ns,
                  deliver_ns=deliver_ns, record_items=record_items,
                  trace=trace)
