"""Execution engine: worker contexts, simulated transport, quiescence.

Run modes:

* sequential: a single thread steps every worker in seeded shuffled rounds.
  Clocks are virtual integer ns that advance only through work (insert,
  delivery, explicit advance), and a run is bit-reproducible per seed.
* threaded: one OS thread per worker with wall clocks. Interleavings are
  real; transport costs are recorded but not slept.

Both engines share one worker context, one per-message cost and accounting
path, one delivery path (_drain, which takes each item's latency sample),
one quiescence path and the handle surface; they differ only in the
clock, the delivery queue, how a message is enqueued and how a run stalls
and stops. The threaded engine hands _drain each group as it takes it,
with the worker's clock set to the wall time of the take.

Items travel as a list of Items, or on the column path as a Batch of int64
columns: a column chunk from ctx.insert_columns stays a Batch through the
buffers of every scheme, the message and the delivery group, and _drain
takes such a group's latency samples in one vector op. Same-process items
and the threaded engine take a column chunk as Items. Each insert hands its
same-process items to the engine's local_deliver in one call, and each
engine queues every item as a one-item entry that arrives at its insert's
time.

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
(_stop), which joins the threaded workers. With a flush timeout set, each
scheduling turn first flushes the worker's expired buffers. A stalled
sequential run then serves the deadlines before it falls back to the
idle-flush round: it heaps each flush owner's next_deadline as (deadline,
owner), and for the earliest moves that owner's clock up to the deadline,
flushes its expired buffers and pushes its next deadline back, until none
is left. A parked threaded worker wakes at its scope's next_deadline, and
at least every _PARK_S.

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
from collections import deque
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
    communication context; it only applies when comm_enabled. header_bytes is
    added to every message's byte count.
    """

    alpha_ns: float = 0.0
    beta_ns_per_byte: float = 0.0
    comm_cost_ns: float = 0.0
    comm_enabled: bool = False
    header_bytes: int = 0

    def __post_init__(self):
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
    hand each delivered group whole. A batch sink that neither reads the
    clock nor inserts returns None; any other returns each item's delivery
    time, the clock the per-item loop reads: s + (i+1)*deliver_ns +
    work_ns*(inserts by earlier items) for item i of a group started at s,
    with its inserts stamped in that sequence through ctx.insert_stamped.

    A group is a list of Items, or a Batch when it came through the buffers
    from column chunks: the Batches of int64 columns that
    ctx.insert_columns builds from two arrays. A Batch iterates as Items,
    so a sink that loops over Items takes either. Same-process items and
    the threaded engine deliver a column chunk's items as Items.
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
    in the sequential engine, a _TQueue in the threaded one. Worker wid
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
        # an int64 sample buffer takes no float: keep the clock integer
        if not isinstance(ns, Integral) or ns < 0:
            raise UsageError(f"cannot advance a clock by {ns!r} ns")
        self.now += ns

    def insert(self, dest: int, payload) -> None:
        self.insert_many((dest,), (payload,))

    def insert_many(self, dests, payloads) -> None:
        """insert(dests[i], payloads[i]) for each i, in order, as one chunk.

        Item i is stamped now + (i+1)*work_ns and takes the i-th next seq;
        the clock ends at the last stamp.
        """
        wns = self.work_ns
        self._insert(dests, payloads, count(self.now + wns, wns))

    def insert_columns(self, dests, payloads) -> None:
        """insert_many of two int64 arrays, as one column chunk: a Batch
        stamped with numpy arithmetic, now + work_ns*(1..n) and seqs
        seq_next + stride*(0..n-1), with no Item per item. The aggregator
        takes it as a Batch, so the columns travel on to the sink."""
        n = _column_count(dests, payloads)
        if not n:
            return
        wns = self.work_ns
        stride = self.seq_stride
        data = np.empty((4, n), dtype=np.int64)
        data[0] = dests
        data[1] = payloads
        ramp = np.arange(n, dtype=np.int64)
        np.multiply(ramp, wns, out=data[2])
        data[2] += self.now + wns
        np.multiply(ramp, stride, out=data[3])
        data[3] += self.seq_next
        self._agg.insert_columns(self.wid, Batch(data))
        self.now += n * wns
        self.seq_next += n * stride

    def insert_stamped(self, dests, payloads, stamps) -> None:
        """insert_many, with item i stamped stamps[i], an int within int64."""
        if len(stamps) != len(dests):
            raise UsageError(f"{len(dests)} destinations but {len(stamps)} "
                             "stamps")
        try:
            checked = array("q", stamps)
        except (TypeError, OverflowError):
            raise _unstamped(stamps) from None
        self._insert(dests, payloads, checked)

    # The clock and the seq counter move only once the aggregator accepted
    # the chunk, so a refused insert leaves no trace in the run. The stamps
    # are ints: spawn checks work_ns, insert_stamped the stamps it is given.
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
        self._agg.insert_batch(self.wid, items)
        last = items[-1]
        self.now = last[2]
        self.seq_next = last[3] + stride

    def flush(self) -> int:
        return self._agg.flush(self.wid, self.time_ns())


class _WallWorker(_Worker):
    """Worker context on the wall clock (threaded engine).

    time_ns reads the wall clock, and each item is stamped with the wall
    time at which it is built, whatever stamps the caller computed. now is
    the clock the shared delivery path reads: the worker sets it to the
    wall time at which it takes a group, and deliveries (deliver_ns per
    item), advance and inserts (their last wall stamp) move it from there,
    so a group's latency samples are estimates anchored at its take.
    """

    __slots__ = ()

    def time_ns(self) -> int:
        return time.monotonic_ns() - self._epoch

    def _insert(self, dests, payloads, stamps) -> None:
        super()._insert(dests, payloads, iter(self.time_ns, None))

    def insert_columns(self, dests, payloads) -> None:
        # as Items, each stamped with the wall time at which it is built
        _column_count(dests, payloads)
        self.insert_many(dests.tolist(), payloads.tolist())


def _column_count(dests, payloads) -> int:
    """len(dests) of two equal-length 1-d int64 arrays; else UsageError."""
    for a in (dests, payloads):
        if not (isinstance(a, np.ndarray) and a.dtype == np.int64
                and a.ndim == 1):
            what = (f"a {a.ndim}-d {a.dtype} array"
                    if isinstance(a, np.ndarray) else type(a).__name__)
            raise UsageError(f"insert_columns takes 1-d int64 arrays, got "
                             f"{what}")
    if len(payloads) != len(dests):
        raise UsageError(f"{len(dests)} destinations but {len(payloads)} "
                         "payloads")
    return len(dests)


def _unstamped(stamps):
    t = next(t for t in stamps
             if not isinstance(t, Integral) or not -2**63 <= t < 2**63)
    return UsageError(f"insert stamp {t!r} is not an integer ns within int64")


def _miscounted(times, items):
    return UsageError(f"batch sink returned {len(times)} delivery times "
                      f"for {len(items)} items")


def _unsampled(times, items):
    """The UsageError naming the first delivery time that is not an integer
    ns within int64, or whose latency sample is not."""
    for t, it in zip(times, items):
        try:
            array("q", (t, t - it[2]))
        except (TypeError, OverflowError):
            break
    return UsageError(f"batch sink returned delivery time {t!r} for an item "
                      f"sent at {it[2]!r}; delivery times are integer ns, "
                      "and each time and latency sample must fit in int64")


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
                 program, *, seed, work_ns, deliver_ns, record_items, trace,
                 record_arrivals):
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
        self._arrivals = [] if record_arrivals else None
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
        """Flush every owner at its time_ns(), then send what that sealed,
        in seal order; returns the messages sent. Sending only after the
        last seal, no sink it wakes can refill a buffer of the round."""
        agg = self._agg
        workers = self._workers
        held = self._held = []
        try:
            for owner in agg.flush_owners():
                agg.flush(owner, workers[owner].time_ns())
        finally:
            self._held = None
        for msg in held:
            self._transmit(msg)
        return len(held)

    def _stop(self):
        pass

    # -- transport: per-message cost and accounting ------------------------
    _held = None  # an idle-flush round's sealed messages, not yet sent

    def send(self, msg):
        """The transport's only per-message entry, called once per sealed
        message in emit order; an idle-flush round holds its messages."""
        held = self._held
        if held is None:
            self._transmit(msg)
        else:
            held.append(msg)

    def _account(self, msg) -> float:
        """Record msg's items, bytes, network cost and comm-context
        occupancy.

        Returns when the message reaches its destination process, in ns on
        the origin's clock: departure, then the comm context if enabled,
        then the network cost. It is the one accounting path of both
        engines and reads msg's slots directly.
        """
        po, dest_scope, items, grouped, cause, sent_at, src = msg
        cfg = self._cfg
        log = self._log
        k = len(items)
        nbytes = k * self._item_bytes + cfg.header_bytes
        net = cfg.alpha_ns + cfg.beta_ns_per_byte * nbytes
        scope = src if self._worker_scoped else po
        log.items_by_scope[scope] += k
        log.bytes_sent += nbytes
        log.transport_cost_ns += net
        if cause == CAUSE_FULL:
            log.msgs_full[scope] += 1
        else:
            log.msgs_flush[scope] += 1
        if log.trace is not None:
            log.trace.append({"origin": po, "dest_scope": dest_scope, "k": k,
                              "cause": cause, "grouped": grouped,
                              "sent_at": sent_at})
        base = float(sent_at)
        if cfg.comm_enabled:
            ready = self._comm_ready[po]
            start = base if base > ready else ready
            base = start + cfg.comm_cost_ns
            self._comm_ready[po] = base
            if self._comm_count[po] == 0:
                self._comm_first[po] = start
            self._comm_count[po] += 1
        return base + net

    # -- delivery: the one path of both engines ---------------------------
    def _drain(self, w, queue, budget):
        """Deliver queue's (arrival, items) entries to worker w, whole, until
        budget items are done; returns whether any was. A Batch group whose
        sink returns None takes its samples and seqs as columns."""
        dns = self._deliver_ns
        done = 0
        pending = w.shard.pending
        sample = pending.append
        dl_log = w.dl_log
        batch_sink = w.batch_sink
        while done < budget and queue:
            arrival, items = queue.popleft()
            if arrival > w.now:
                w.now = arrival
            k = len(items)
            if batch_sink is not None:
                # the same samples and clock as the per-item loop below
                now = w.now
                times = batch_sink(w, items)
                if times is None:
                    w.now = now + k * dns
                    if type(items) is Batch and w.now < 2**63:
                        # the samples below, now + (i+1)*dns - created_at,
                        # in one vector op: each fits in int64, as the clock
                        # does and a column chunk's stamps are >= 0
                        ramp = np.arange(1, k + 1, dtype=np.int64)
                        ramp *= dns
                        ramp += now
                        ramp -= items.created_at
                        pending.frombytes(ramp.tobytes())
                        w.delivered += k
                        if dl_log is not None:
                            dl_log.extend(items.seq.tolist())
                        done += k
                        continue
                    times = count(now + dns, dns) if k > 1 else (w.now,)
                elif len(times) != k:
                    raise _miscounted(times, items)
                elif times[-1] >= 2**63:  # the clock stays int64 too
                    raise _unsampled(times, items)
                elif times[-1] > w.now:  # else the sink's last stamp
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
            else:
                on_item = w.driver.on_item
                for it in items:
                    now = w.now + dns
                    w.now = now
                    sample(now - it[2])
                    on_item(w, it)
                    w.delivered += 1
                    if dl_log is not None:
                        dl_log.append(it[3])
            done += k
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
        self._chan_last = {}
        self._sched = random.Random(repr((self._seed, 0x5EED)))
        for ctx in self._workers:
            ctx.driver.on_start(ctx)

    # -- transport interface (called by the aggregator) --------------------
    def _transmit(self, msg):
        plan = self._agg.on_receive(msg)
        arrival = int(self._account(msg) + 0.5)
        ch = (msg[0], plan[0][0] // self._t)
        last = self._chan_last.get(ch)
        if last is not None and arrival < last:
            arrival = last
        self._chan_last[ch] = arrival
        if self._arrivals is not None:
            self._arrivals.append((*ch, arrival))
        workers = self._workers
        for wid, group in plan:
            workers[wid].queue.append((arrival, group))

    def local_deliver(self, items):
        # one entry per item, arriving at its insert's time
        for it in items:
            self._workers[it[0]].queue.append((it[2], (it,)))

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
                if self._drain(w, w.queue, _DELIVER_BUDGET):
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

_T_DELIVER = 0
_T_TASK = 1
_T_STOP = 2
_ACK_TIMEOUT_S = 10.0  # wait for workers to ack a task or stop
_PARK_S = 0.005  # longest park of a worker under a flush timeout


class _TQueue(queue.SimpleQueue):
    __len__ = queue.SimpleQueue.qsize


class ThreadedRun(_BaseRun):
    """One OS thread per worker; wall clocks; costs recorded, not slept.

    _busy, guarded by _tlock, counts the workers not parked in a blocking
    get plus the queue entries put and not yet taken (Dijkstra & Scholten,
    IPL 1980). Workers put entries only while busy, so once _busy is 0 under
    _tlock no sink, step or flush runs, and no buffer changes until the
    coordinator puts an entry. _run then runs the shared idle-flush round
    under _tlock; _stop joins the workers and raises a worker's error.
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

    def _put(self, wid, entry):
        """Count entry as outstanding work and queue it for worker wid."""
        with self._tlock:
            self._busy += 1
            self._workers[wid].queue.put(entry)

    # -- transport interface -------------------------------------------------
    def _transmit(self, msg):
        plan = self._agg.on_receive(msg)
        with self._tlock:
            self._account(msg)
            if self._arrivals is not None:
                self._arrivals.append((msg[0], plan[0][0] // self._t,
                                       time.monotonic_ns() - self._epoch))
            self._busy += len(plan)
            for wid, group in plan:
                self._workers[wid].queue.put((_T_DELIVER, group))

    def local_deliver(self, items):
        # one entry per item, each counted before any can be taken
        with self._tlock:
            self._busy += len(items)
            for it in items:
                self._workers[it[0]].queue.put((_T_DELIVER, (it,)))

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
                if tag == _T_DELIVER:
                    # the group arrives at its take, on the wall clock
                    now = w.now = w.time_ns()
                    self._drain(w, deque([(now, e[1])]), _DELIVER_BUDGET)
                elif tag == _T_TASK:
                    e[3].append(e[1](w))
                    e[2].set()
                else:
                    break
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

    def _run(self, timeout_s):
        """Wait until every worker is parked and no entry is outstanding,
        then run the idle-flush round; again while the round sends."""
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
        for w in self._workers:
            self._put(w.wid, (_T_STOP,))
        deadline = time.monotonic() + _ACK_TIMEOUT_S
        for w in self._workers:
            w.thread.join(timeout=max(0.0, deadline - time.monotonic()))

    # -- handle surface --------------------------------------------------------
    def broadcast_task(self, fn):
        evs = []
        boxes = []
        for w in self._workers:
            ev = threading.Event()
            box = []
            evs.append(ev)
            boxes.append(box)
            self._put(w.wid, (_T_TASK, fn, ev, box))
        out = []
        for ev, box in zip(evs, boxes):
            if not ev.wait(_ACK_TIMEOUT_S):
                self._timed_out("task did not acknowledge")
            out.append(box[0])
        return out

    def _runtime_ns(self):
        return time.monotonic_ns() - self._epoch


RunHandle = _BaseRun  # public name for type hints


def spawn(topo: Topology, agg: Aggregator, cfg: TransportConfig = None, *,
          mode: str = MODE_SEQUENTIAL, program, seed: int = 0,
          work_ns: int = 100, deliver_ns: int = 50,
          record_items: bool = False, trace: bool = False,
          record_arrivals: bool = False) -> RunHandle:
    """Create worker contexts, wire the aggregator, and start the run.

    program is a callable worker_id -> WorkerProgram. work_ns advances the
    inserting worker's clock per insert and deliver_ns the destination's per
    delivered item, in both engines; both must be non-negative ints. In
    threaded mode a delivered group starts at the wall time its worker takes
    it, so its items' delivery times and latency samples are estimates
    anchored there, and inserts are stamped with the wall clock. Threaded
    mode refuses more than MAX_THREADED_WORKERS workers. Returns the run
    handle; call await_quiescence on it.
    """
    for name, ns in (("work_ns", work_ns), ("deliver_ns", deliver_ns)):
        # the clock and every stamp insert_many derives from it stay ints
        if not isinstance(ns, int) or ns < 0:
            raise UsageError(f"{name} must be a non-negative int, got {ns!r}")
    engine = (SequentialRun if parse_mode(mode) == MODE_SEQUENTIAL
              else ThreadedRun)
    return engine(topo, agg, cfg, program, seed=seed, work_ns=work_ns,
                  deliver_ns=deliver_ns, record_items=record_items,
                  trace=trace, record_arrivals=record_arrivals)
