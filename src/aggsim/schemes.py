"""The four aggregation schemes and their buffer machinery.

Scheme tokens:
  ww  - each source worker keeps one buffer per destination worker.
  wps - each source worker keeps one buffer per destination process; the
        receiving process groups items by destination worker.
  wsp - same buffer layout as wps, but the source worker groups the batch
        before sending, so the receiver only splits contiguous runs.
  pp  - all workers of a process share one buffer per destination process;
        grouping happens at the destination, as in wps.

Items whose destination worker lives in the source process bypass buffering
entirely: each insert hands its chunk's same-process items, in chunk order,
to the transport's local_deliver(items) in one call, and the engine queues
them; shared-memory delivery needs no coalescing. The modelled layout
(allocated_bytes) still counts ww's buffers for same-process destinations,
but they are never filled.

The buffered items are the only buffer state, and every layout keeps them
in one kind of row: a source worker's for ww/wps/wsp, a source process's
for pp, so pp is wps with one row per process, shared by its workers. A
row holds only its non-empty buffers, created on first insert and dropped
at seal. A buffer's timeout deadline is its oldest item's created_at plus
the timeout, and a pp message departs no earlier than its newest item's
created_at. No scheme counts its inserts: every buffered item leaves in
exactly one message, so the engine counts items per scope from the
messages it is sent.

A buffer emits exactly when it reaches g items (cause "full", k == g) or when
flushed while non-empty (cause "flush", k < g, message resized to k).

Every seal builds its CoalescedMessage with tuple.__new__ under its row's
lock, and the messages go to transport.send once the lock is released, one
call per message, in emit order: a flush seals in ascending destination
order. Aggregator writes every insert, seal, flush and query once for all
four layouts; a scheme class sets only its layout.

A chunk is a list of Items (insert_batch) or a column chunk, a Batch of
int64 columns (insert_columns). A column chunk is split by column with one
stable argsort; a buffer it fills keeps the chunk's column slices and seals
them into one Batch, which the message carries and on_receive groups with
one stable argsort of dest, so a delivery group may be a Batch or a list
of Items. A column chunk's same-process items go to local_deliver as one
Batch, which iterates as Items. A buffer that both kinds of chunk fill
seals into a list of Items. The threaded engine inserts a column chunk as
Items, so its aggregator sees only lists.
"""
from __future__ import annotations

import threading
from collections import defaultdict
from enum import Enum
from itertools import groupby
from numbers import Integral
from operator import itemgetter
from typing import Optional, Sequence

import numpy as np

from .errors import SetupError, UsageError
from .topology import Batch, Item, Topology

CAUSE_FULL = "full"
CAUSE_FLUSH = "flush"
_DEST = itemgetter(0)
_CREATED = itemgetter(2)


class SchemeKind(str, Enum):
    WW = "ww"
    WPS = "wps"
    WSP = "wsp"
    PP = "pp"

    @classmethod
    def parse(cls, token) -> "SchemeKind":
        if isinstance(token, cls):
            return token
        try:
            return cls(str(token).lower())
        except ValueError:
            raise UsageError(
                f"unknown scheme {token!r}; expected one of "
                f"{[k.value for k in cls]}") from None


class CoalescedMessage(tuple):
    """One wire message carrying k buffered items.

    origin is the source process, dest_scope the destination worker (ww) or
    process (wps/wsp/pp). grouped means items are contiguous by destination
    worker. sent_at is the departure timestamp on the emitting worker's clock.

    The fields are the tuple's slots 0-6 in that order, read by C-level
    itemgetters. The schemes build a message with tuple.__new__, and the
    transport reads its slots directly.
    """

    __slots__ = ()

    def __new__(cls, origin, dest_scope, items, grouped, cause, sent_at,
                src_worker=-1):
        return tuple.__new__(cls, (origin, dest_scope, items, grouped, cause,
                                   sent_at, src_worker))

    origin = property(itemgetter(0))
    dest_scope = property(itemgetter(1))
    items = property(itemgetter(2))
    grouped = property(itemgetter(3))
    cause = property(itemgetter(4))
    sent_at = property(itemgetter(5))
    src_worker = property(itemgetter(6))

    @property
    def k(self) -> int:
        return len(self[2])


class GroupingStats:
    """Touch counter for group_items: one per item plus one per bucket.

    add() takes a lock, so concurrent groupers (threaded engine senders and
    wsp owners) lose no update.
    """

    __slots__ = ("touches", "calls", "_lock")

    def __init__(self):
        self.touches = 0
        self.calls = 0
        self._lock = threading.Lock()

    def add(self, touches: int) -> None:
        """Count one grouping pass of the given cost."""
        with self._lock:
            self.touches += touches
            self.calls += 1


def group_items(items, topo: Topology,
                stats: Optional[GroupingStats] = None):
    """Stable sort of a batch by destination worker: a list of Items
    sorted by dest, or a Batch by one stable argsort of its dest column.

    All destinations must live in one process. Relative order per
    destination is preserved, as by a counting sort over the t local
    destinations, whose O(k + t) touches are what stats counts.
    """
    if not items:
        return []
    t = topo.workers_per_proc
    columns = type(items) is Batch
    first = int(items.dest[0]) if columns else items[0][0]
    if not 0 <= first < topo.total_workers:
        raise UsageError(f"destination {first} out of range")
    if columns:
        dest = items.dest
        low, high = int(dest.min()), int(dest.max())
    else:
        out = sorted(items, key=_DEST)
        low, high = out[0][0], out[-1][0]
    base = (first // t) * t
    if low < base or high >= base + t:
        raise UsageError(
            "group_items batch spans more than one destination process")
    if columns:
        out = Batch(items.data.take(_stable_order(dest - base, t), axis=1))
    if stats is not None:
        stats.add(len(items) + t)
    return out


def split_grouped(items) -> list:
    """Split a dest-contiguous batch into (worker, run) pairs, in order: a
    Batch into Batch slices, cut where its dest column changes."""
    if type(items) is Batch:
        dest = items.dest
        cuts = (np.flatnonzero(dest[1:] != dest[:-1]) + 1).tolist()
        starts = [0, *cuts]
        return [(d, items[s:e]) for d, s, e in zip(
            dest[starts].tolist(), starts, [*cuts, len(dest)])]
    return [(d, list(run)) for d, run in groupby(items, key=_DEST)]


def _stable_order(keys, bound):
    """keys.argsort(kind="stable") for int keys in [0, bound). numpy
    radix-sorts integers of 16 bits or less, several times faster than it
    merge-sorts int64, so keys that fit are cast first."""
    if bound <= 1 << 8:
        keys = keys.astype(np.uint8)
    elif bound <= 1 << 16:
        keys = keys.astype(np.uint16)
    return keys.argsort(kind="stable")


def _head(buf) -> int:
    """created_at of a buffer's oldest item."""
    return buf[0][2] if type(buf) is list else buf.head()


def _newest(batch) -> int:
    """created_at of a sealed batch's newest item."""
    if type(batch) is Batch:
        return int(batch.created_at.max())
    return max(map(_CREATED, batch))


def _extend(row, col, part):
    """Append the (4, m) column slice part to row's buffer col, which it
    creates, or turns from a list of Items into _Slices, as needed."""
    buf = row.get(col)
    if buf is None:
        row[col] = _Slices([part], part.shape[1])
        return
    if type(buf) is list:  # a list chunk's items come first
        buf = row[col] = _Slices([buf], len(buf))
    buf.parts.append(part)
    buf.n += part.shape[1]


class _Slices:
    """A buffer that a column chunk filled.

    parts holds its items in order, as (4, m) column slices of the chunks
    and, when a list chunk's items followed, lists of Items; n counts the
    items. It has the list buffer's append and len, so a list chunk's item
    loop fills it as it fills a list, and seal() makes it one Batch, or a
    list of Items when any part is one.
    """

    __slots__ = ("parts", "n")

    def __init__(self, parts, n):
        self.parts = parts
        self.n = n

    def __len__(self) -> int:
        return self.n

    def append(self, item) -> None:
        parts = self.parts
        if type(parts[-1]) is not list:
            parts.append([])
        parts[-1].append(item)
        self.n += 1

    def head(self) -> int:
        first = self.parts[0]
        return first[0][2] if type(first) is list else int(first[2, 0])

    def seal(self):
        parts = self.parts
        if list in map(type, parts):
            items = []
            for p in parts:
                items.extend(p if type(p) is list else Batch(p))
            return items
        return Batch(parts[0] if len(parts) == 1
                     else np.concatenate(parts, axis=1))


class Aggregator:
    """The buffer rows and queries of all four schemes.

    An aggregator is inert until bind() attaches a transport (the engine);
    create -> spawn is the intended order, and a second spawn on the same
    instance is refused. The transport offers send(msg), called once per
    sealed message, and local_deliver(items), called at most once per
    insert with the chunk's same-process items, in chunk order.

    Items wait in rows. A row belongs to a flush owner: a source worker for
    ww/wps/wsp, a source process for pp, whose workers share it. It has one
    column per destination scope, dest // width: the destination worker
    for ww (width 1), its process for wps/wsp/pp (width t). A row maps each
    non-empty buffer's column to its items; a seal pops it.

    Every change to a row runs under the row's lock, which a chunk takes at
    most once. No transport call runs under it: the messages sealed under
    the lock are sent after its release, in seal order. A flush peeks at
    its row without the lock, takes it only when something is due, and
    checks again under it. next_deadline and owner_buffered take no lock,
    so a threaded worker asks them while others insert. The engines ask
    per flush owner (flush_owners); each scheme class sets only its layout.
    """

    kind: SchemeKind  # set by each scheme class
    scope_kind = "worker"      # a row's owner; pp's is a process
    _per_process = False       # a column is a destination process
    _grouped = True            # a message's items are dest-contiguous
    _group_at_source = False   # wsp sorts each sealed batch before sending

    def __init__(self, topo: Topology, g: int, item_bytes: int):
        for name, v in (("g", g), ("item_bytes", item_bytes)):
            if not (isinstance(v, Integral) and v >= 1):
                raise UsageError(f"{name} must be an integer >= 1, got {v!r}")
        self.topo = topo
        self.g = int(g)
        self.item_bytes = int(item_bytes)
        self.flush_timeout_ns: Optional[int] = None
        self.grouping_stats = GroupingStats()
        self._transport = None
        t = self._t = topo.workers_per_proc
        self._w = topo.total_workers
        self._width = t if self._per_process else 1
        self._cols = self._w // self._width
        # workers per row
        self._owner_width = t if self.scope_kind == "process" else 1
        rows = self._w // self._owner_width
        self._rows = [defaultdict(list) for _ in range(rows)]
        self._locks = [threading.Lock() for _ in range(rows)]

    # -- wiring -----------------------------------------------------------
    def bind(self, transport) -> None:
        if self._transport is not None:
            raise UsageError("aggregator is already attached to a run")
        self._transport = transport

    def set_flush_timeout(self, timeout_ns: Optional[int]) -> None:
        """Flush a buffer once its oldest item is timeout_ns old, an integer
        > 0; None turns timeout flushing off. Set it before spawning the
        run."""
        if timeout_ns is not None:
            if not (isinstance(timeout_ns, Integral) and timeout_ns > 0):
                raise UsageError(f"flush timeout must be None or an integer "
                                 f"ns count > 0, got {timeout_ns!r}")
            timeout_ns = int(timeout_ns)
        self.flush_timeout_ns = timeout_ns

    def _refuse(self, dests):
        """Refuse a chunk by its destinations, in order: the first one out
        of range raises UsageError, and on an unbound aggregator the first
        one in range, or an empty chunk, raises SetupError; return when
        neither. Each insert body tests its chunk inline and calls this only
        when that test fails, before any effect."""
        for d in dests:
            if not 0 <= d < self._w:
                raise UsageError(f"destination worker {d} out of range")
            if self._transport is None:
                break
        if self._transport is None:
            raise SetupError("aggregator not attached to a run")

    # -- introspection ------------------------------------------------------
    def allocated_bytes(self) -> dict:
        """Modeled buffer bytes: each flush owner's row allocates one
        buffer per column, and every buffer holds g slots of item_bytes
        each. Matches the analytic memory overhead by construction of the
        layout, which is exactly what the cross-check pins down."""
        per_owner = self._cols * self.g * self.item_bytes
        if self.scope_kind == "worker":
            return {"per_core_bytes": per_owner,
                    "per_process_bytes": per_owner * self._t}
        return {"per_core_bytes": 0, "per_process_bytes": per_owner}

    def flush_owners(self) -> range:
        """Worker ids whose flush() calls cover every buffer exactly once:
        the first worker of each row."""
        return range(0, self._w, self._owner_width)

    # -- inserts -------------------------------------------------------------
    def insert(self, source: int, item: Item) -> None:
        """insert_batch of the one item."""
        self.insert_batch(source, (item,))

    def insert_batch(self, source: int, items: Sequence[Item]) -> None:
        """Buffer one source's chunk in order, and hand its same-process
        items to one local_deliver. An item's created_at is its insert's
        time: it stamps a local delivery and a seal on full, and starts the
        flush timeout of an empty buffer. The chunk is checked whole first,
        so a bad item leaves no effect at all."""
        if not (items and self._transport is not None
                and 0 <= min(map(_DEST, items))
                and max(map(_DEST, items)) < self._w):
            self._refuse(map(_DEST, items))
            return  # an empty chunk
        t = self._t
        width = self._width
        lo = (source // t) * t // width     # source process's columns
        hi = lo + t // width
        g = self.g
        r = source // self._owner_width
        row = self._rows[r]
        local = []
        sealed = []
        with self._locks[r]:
            for it in items:
                col = it[0] // width
                if lo <= col < hi:
                    local.append(it)
                    continue
                buf = row[col]
                buf.append(it)
                if len(buf) == g:
                    self._seal(row, source, (col,), CAUSE_FULL, it[2],
                               sealed)
        self._send(sealed, local)

    def insert_columns(self, source: int, batch: Batch) -> None:
        """insert_batch of a column chunk, with the same effects. A buffer
        it fills keeps its column slices, and seals into one Batch."""
        # One stable argsort of the columns splits the chunk into runs, each
        # in chunk order. The runs' buffer fills are sealed in the chunk
        # order of their filling items, each sent at that item's stamp, as
        # the item loop sends them; what is left of each run is then
        # buffered. Same-process items go to local_deliver as one Batch, in
        # chunk order.
        data = batch.data
        dest = data[0]
        if not (dest.size and self._transport is not None
                and dest.min() >= 0 and dest.max() < self._w):
            self._refuse(dest.tolist())
            return  # an empty chunk
        width = self._width
        col = dest // width if width > 1 else dest
        order = _stable_order(col, self._cols)
        data = data.take(order, axis=1)
        t = self._t
        lo = (source // t) * t // width     # source process's columns
        hi = lo + t // width
        g = self.g
        r = source // self._owner_width
        row = self._rows[r]
        local = None   # the run of same-process columns, [start, end)
        fills = []     # (filling item's chunk position, col, start, end)
        rests = []     # (col, start, end) left buffered
        sealed = []
        e = 0
        with self._locks[r]:
            for c, m in enumerate(np.bincount(col).tolist()):
                if not m:
                    continue
                s = e
                e += m
                if lo <= c < hi:
                    local = (s if local is None else local[0], e)
                    continue
                f = s + g - len(row.get(c, ()))
                while f <= e:
                    fills.append((int(order[f - 1]), c, s, f))
                    s = f
                    f += g
                if s < e:
                    rests.append((c, s, e))
            fills.sort()  # the positions differ, so nothing else compares
            for _, c, s, f in fills:
                _extend(row, c, data[:, s:f])
                self._seal(row, source, (c,), CAUSE_FULL,
                           int(data[2, f - 1]), sealed)
            for c, s, e in rests:
                _extend(row, c, data[:, s:e])
        if local is not None:
            s, e = local
            local = data[:, s:e]
            if hi - lo > 1:  # ww: back to chunk order across destinations
                local = local[:, order[s:e].argsort()]
            local = Batch(local)
        self._send(sealed, local)

    def _send(self, sealed, local):
        """Hand a released row's sealed messages to send, in seal order,
        then the chunk's same-process items to local_deliver. A chunk's
        local items go only to its own process's queues and its seals only
        to other processes', so the hand-over order reorders nothing any
        queue sees."""
        send = self._transport.send
        for msg in sealed:
            send(msg)
        if local:
            self._transport.local_deliver(local)

    def _seal(self, row, source, cols, cause, now, out):
        """Pop row's buffers cols, in order, and append each to out as one
        message from source departing at now; the caller holds the row's
        lock, and sends out after releasing it.

        A full seal passes its one column, flush the sorted row and
        flush_expired the sorted due columns. wsp groups each batch here,
        and a buffer filled by a column chunk seals into one Batch. A pp
        row's workers have independent clocks, so its message departs no
        earlier than its newest item.
        """
        pop = row.pop
        new = tuple.__new__
        origin = source // self._t
        grouped = self._grouped
        at_source = self._group_at_source
        shared = self.scope_kind != "worker"
        topo, stats = self.topo, self.grouping_stats
        for col in cols:
            batch = pop(col)
            if type(batch) is _Slices:
                batch = batch.seal()
            if at_source:
                batch = group_items(batch, topo, stats)
            sent_at = max(now, _newest(batch)) if shared else now
            out.append(new(CoalescedMessage, (origin, col, batch, grouped,
                                              cause, sent_at, source)))

    # -- flushes and queries ------------------------------------------------
    def flush(self, source: int, now: int) -> int:
        """Ship every non-empty buffer in source's row, in destination
        order, each departing at now (pp: no earlier than its newest item).
        Returns messages emitted."""
        return self._flush_row(source, now, None)

    def flush_expired(self, source: int, now: int) -> int:
        """Flush buffers in source's row whose first item is at least the
        timeout old, as flush does. Returns messages emitted."""
        tns = self.flush_timeout_ns
        if tns is None:
            return 0
        return self._flush_row(source, now, tns)

    def _flush_row(self, source, now, tns):
        """Seal the buffers in source's row whose first item is tns old, or
        every non-empty one when tns is None, as flush ships them.

        The row is first peeked at without its lock, and left alone when
        empty or when nothing in it is due. An item never changes and a
        buffer never empties in place, so a skip is what a locked check at
        the peek would decide; an insert after the peek waits for a later
        flush, as one after a locked check would. The buffers the peek
        picks are checked again under the lock.
        """
        r = source // self._owner_width
        row = self._rows[r]
        if tns is not None:
            due = [col for col, buf in list(row.items())
                   if buf and _head(buf) + tns <= now]
            if not due:
                return 0
        elif not row:
            return 0
        sealed = []
        with self._locks[r]:
            self._seal(row, source, sorted(
                row if tns is None else
                (col for col in due if col in row
                 and _head(row[col]) + tns <= now)),
                CAUSE_FLUSH, now, sealed)
        self._send(sealed, None)
        return len(sealed)

    # The threaded engine reads a row while others fill and seal it: a pp
    # row's workers, or the coordinator. list() copies a row in one C call,
    # which no other thread can interleave with; iterating the live dict
    # over several bytecodes could see it change size and raise. A seal
    # pops a buffer whole, so a non-empty copy keeps its oldest item; an
    # insert creates its buffer empty just before it appends, so empty
    # ones are skipped.
    def _buffers(self, worker):
        """The non-empty buffers in worker's row, read without a lock."""
        return [buf for buf in list(
            self._rows[worker // self._owner_width].values()) if buf]

    def owner_buffered(self, worker: int) -> int:
        """Items currently buffered in the row worker would flush."""
        return sum(map(len, self._buffers(worker)))

    def next_deadline(self, worker: int) -> Optional[int]:
        """Earliest timeout deadline among the buffers worker's flush_expired
        covers, or None when they are empty or no timeout is set. It is the
        one deadline query: it reads only that row, so an owner thread can
        ask while others insert, and the sequential engine walks the owners'
        answers in (deadline, owner) order."""
        tns = self.flush_timeout_ns
        if tns is None:
            return None
        oldest = min(map(_head, self._buffers(worker)), default=None)
        return None if oldest is None else oldest + tns

    def on_receive(self, msg: CoalescedMessage) -> list:
        """Delivery plan for an arrived message: [(worker, items), ...],
        grouped by destination worker here unless the sender grouped it."""
        items = msg[2]
        if msg[3]:
            return split_grouped(items)
        return split_grouped(group_items(items, self.topo,
                                         self.grouping_stats))


class _WWAggregator(Aggregator):
    """ww: one buffer per destination worker at each source worker."""

    kind = SchemeKind.WW

    def on_receive(self, msg):
        # single destination: trivially contiguous; each message owns its
        # list or Batch, so the group takes it whole
        return [(msg[1], msg[2])]


class _ProcBufferedAggregator(Aggregator):
    """wps/wsp/pp: one buffer per destination process in each row."""

    _per_process = True
    _grouped = False


class _WPsAggregator(_ProcBufferedAggregator):
    kind = SchemeKind.WPS


class _WsPAggregator(_ProcBufferedAggregator):
    """wsp groups at the source worker, so receivers only split runs."""

    kind = SchemeKind.WSP
    _grouped = True
    _group_at_source = True


class _PPAggregator(_ProcBufferedAggregator):
    """pp: wps with one row per source process, which its workers share."""

    kind = SchemeKind.PP
    scope_kind = "process"


_SCHEME_CLASSES = {cls.kind: cls for cls in (
    _WWAggregator, _WPsAggregator, _WsPAggregator, _PPAggregator)}


def create_aggregator(kind, topo: Topology, g: int,
                      item_bytes: int) -> Aggregator:
    """Build an aggregator of the given scheme for a topology."""
    return _SCHEME_CLASSES[SchemeKind.parse(kind)](topo, g, item_bytes)
