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
at seal. A buffer's timeout deadline is its first-inserted item's
created_at plus the timeout. Stamps never go back, so in a private row that
item is the buffer's oldest; in a pp row, whose workers keep their own
clocks, it may not be. A pp message departs no earlier than its newest
item's created_at. Each row keeps a deadline floor, a lower bound on its
buffers' heads, so a timeout poll of a row with nothing due costs one
comparison. No scheme counts its inserts: every buffered item leaves
in exactly one message, so the engine counts items per scope from the
messages it is sent.

A buffer emits exactly when it reaches g items (cause "full", k == g) or when
flushed while non-empty (cause "flush", k < g, message resized to k).

Every seal builds its CoalescedMessage with tuple.__new__ under its row's
lock, and the messages go to transport.send once the lock is released, one
call per message, in emit order: a flush seals in ascending destination
order. Aggregator is the one class of all four layouts: it writes every
insert, seal, flush and query once, and sets its layout from its kind. A
ww message goes to one worker (dest_is_worker), so the transport queues
its list or Batch whole, with no delivery plan; on_receive plans the
other layouts' messages.

A chunk is a list of Items (insert_batch) or a column chunk, a Batch of
int64 columns (insert_columns). A column chunk is split by column with one
stable argsort, unless it falls in one column; a buffer it fills keeps the
chunk's column slices and seals them into one Batch, which the message
carries and on_receive groups with one stable argsort of dest, so a
delivery group may be a Batch or a list of Items. A column chunk's
same-process items go to local_deliver as one Batch, which iterates as
Items. A buffer that both kinds of chunk fill seals into a list of Items.
Both engines insert chunks of both kinds.
"""
from __future__ import annotations

import threading
from collections import defaultdict
from enum import Enum
from itertools import groupby, repeat
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
_NO_HEAD = 2**63  # an empty row's deadline floor, above every int64 stamp


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
    """created_at of a buffer's first-inserted item."""
    return buf[0][2] if type(buf) is list else buf.head


def _newest(batch) -> int:
    """created_at of a sealed batch's newest item."""
    if type(batch) is Batch:
        return int(batch.created_at.max())
    return max(map(_CREATED, batch))


def _extend(row, col, part) -> int:
    """Append the (4, m) column slice part to row's buffer col, which it
    creates, or turns from a list of Items into _Slices, as needed; returns
    the buffer's head."""
    buf = row.get(col)
    if buf is None:
        buf = row[col] = _Slices([part], part.shape[1], int(part[2, 0]))
        return buf.head
    if type(buf) is list:  # a list chunk's items come first
        buf = row[col] = _Slices([buf], len(buf), buf[0][2])
    buf.parts.append(part)
    buf.n += part.shape[1]
    return buf.head


class _Slices:
    """A buffer that a column chunk filled.

    parts holds its items in order, as (4, m) column slices of the chunks
    and, when a list chunk's items followed, lists of Items; n counts the
    items, and head is the first-inserted one's created_at, kept so that a
    deadline peek reads it without a call. It has the list buffer's append
    and len, so a list chunk's item loop fills it as it fills a list, and
    seal() makes it one Batch, or a list of Items when any part is one.
    """

    __slots__ = ("parts", "n", "head")

    def __init__(self, parts, n, head):
        self.parts = parts
        self.n = n
        self.head = head

    def __len__(self) -> int:
        return self.n

    def append(self, item) -> None:
        parts = self.parts
        if type(parts[-1]) is not list:
            parts.append([])
        parts[-1].append(item)
        self.n += 1

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
    its row without the lock, takes it only when something may be due,
    and decides under it. next_deadline and owner_buffered take no lock,
    so a threaded worker asks them while others insert. The engines ask
    per flush owner (flush_owners).

    Each row also keeps a deadline floor, an int never above the head (the
    first-inserted item's created_at) of any of its buffers, or _NO_HEAD.
    It is lowered under the row lock where a buffer is created, since that
    fixes its head: insert_columns by the head itself, insert_batch by its
    chunk's earliest stamp, as stamps may go back within a chunk. Each
    scan of the row, by flush or flush_expired, sets it to the exact
    earliest head left, under the lock. So while floor + timeout is later
    than now, nothing in the row is due, and flush_expired returns without
    reading a buffer. insert_batch keeps the floors only while a timeout
    is set, so a run without one does no floor work per item, and
    set_flush_timeout recomputes them.

    kind, a SchemeKind, sets that layout in __init__, and whether a
    message is dest-contiguous (ww's and wsp's) and grouped at its source
    (only wsp's). dest_is_worker, public, says that a message's dest_scope
    is its one destination worker (ww's), so the transport queues its
    list or Batch whole, as its one group, and asks on_receive for no
    plan.
    """

    def __init__(self, kind: SchemeKind, topo: Topology, g: int,
                 item_bytes: int):
        for name, v in (("g", g), ("item_bytes", item_bytes)):
            if not (isinstance(v, Integral) and not isinstance(v, bool)
                    and v >= 1):
                raise UsageError(f"{name} must be an integer >= 1, got {v!r}")
        self.topo = topo
        self.g = int(g)
        self.item_bytes = int(item_bytes)
        self.flush_timeout_ns: Optional[int] = None
        self.grouping_stats = GroupingStats()
        self._transport = None
        self.kind = kind
        t = self._t = topo.workers_per_proc
        self._w = topo.total_workers
        self.dest_is_worker = kind is SchemeKind.WW
        self._width = 1 if self.dest_is_worker else t
        self._cols = self._w // self._width
        self.scope_kind = "process" if kind is SchemeKind.PP else "worker"
        self._owner_width = t if kind is SchemeKind.PP else 1
        self._group_at_source = kind is SchemeKind.WSP
        self._grouped = kind in (SchemeKind.WW, SchemeKind.WSP)
        rows = self._w // self._owner_width
        self._rows = [defaultdict(list) for _ in range(rows)]
        self._locks = [threading.Lock() for _ in range(rows)]
        self._floors = [_NO_HEAD] * rows

    # -- wiring -----------------------------------------------------------
    def bind(self, transport) -> None:
        if self._transport is not None:
            raise UsageError("aggregator is already attached to a run")
        self._transport = transport

    def set_flush_timeout(self, timeout_ns: Optional[int]) -> None:
        """Flush a buffer once its first-inserted item is timeout_ns old,
        an integer > 0; None turns timeout flushing off. Set it before
        spawning the run. Setting a timeout recomputes every row's deadline
        floor from the buffers it holds."""
        if timeout_ns is not None:
            if not (isinstance(timeout_ns, Integral)
                    and not isinstance(timeout_ns, bool) and timeout_ns > 0):
                raise UsageError(f"flush timeout must be None or an integer "
                                 f"ns count > 0, got {timeout_ns!r}")
            timeout_ns = int(timeout_ns)
            for r, row in enumerate(self._rows):
                with self._locks[r]:
                    self._floors[r] = min(map(_head, row.values()),
                                          default=_NO_HEAD)
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
            if self.flush_timeout_ns is not None:
                # no head this chunk set is older than its earliest stamp
                low = min(map(_CREATED, items))
                if low < self._floors[r]:
                    self._floors[r] = low
        self._send(sealed, local)

    def insert_columns(self, source: int, batch: Batch) -> None:
        """insert_batch of a column chunk, with the same effects. A buffer
        it fills keeps its column slices, and seals into one Batch."""
        # One stable argsort of the columns splits the chunk into runs, each
        # in chunk order; a chunk whose destinations fall in one column is
        # its own run, and is not sorted. The runs' buffer fills are sealed
        # in the chunk order of their filling items, each sent at that
        # item's stamp, as the item loop sends them; what is left of each
        # run is then buffered, and lowers the row's floor by the head of
        # its buffer. Same-process items go to local_deliver as one Batch,
        # in chunk order.
        data = batch.data
        dest = data[0]
        if not (dest.size and self._transport is not None
                and (low := int(dest.min())) >= 0
                and (high := int(dest.max())) < self._w):
            self._refuse(dest.tolist())
            return  # an empty chunk
        width = self._width
        if low // width == high // width:
            order = None  # chunk order is run order
            runs = ((low // width, dest.size),)
        else:
            col = dest // width if width > 1 else dest
            order = _stable_order(col, self._cols)
            data = data.take(order, axis=1)
            runs = enumerate(np.bincount(col).tolist())
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
            for c, m in runs:
                if not m:
                    continue
                s = e
                e += m
                if lo <= c < hi:
                    local = (s if local is None else local[0], e)
                    continue
                f = s + g - len(row.get(c, ()))
                while f <= e:
                    fills.append((f - 1 if order is None
                                  else int(order[f - 1]), c, s, f))
                    s = f
                    f += g
                if s < e:
                    rests.append((c, s, e))
            fills.sort()  # the positions differ, so nothing else compares
            for _, c, s, f in fills:
                _extend(row, c, data[:, s:f])
                self._seal(row, source, (c,), CAUSE_FULL,
                           int(data[2, f - 1]), sealed)
            floor = self._floors[r]
            for c, s, e in rests:
                head = _extend(row, c, data[:, s:e])
                if head < floor:
                    floor = head
            self._floors[r] = floor
        if local is not None:
            s, e = local
            local = data[:, s:e]
            # ww: back to chunk order across destinations
            if order is not None and hi - lo > 1:
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
        flush_expired the sorted due columns. The messages are built in
        one pass over the popped batches, and each step below runs only
        where it applies: a buffer filled by a column chunk seals into one
        Batch, wsp groups each batch here, and a pp row's workers have
        independent clocks, so its message departs no earlier than its
        newest item.
        """
        batches = list(map(row.pop, cols))
        if _Slices in map(type, batches):
            batches = [b.seal() if type(b) is _Slices else b
                       for b in batches]
        if self._group_at_source:
            topo, stats = self.topo, self.grouping_stats
            batches = [group_items(b, topo, stats) for b in batches]
        stamps = (map(max, repeat(now), map(_newest, batches))
                  if self.scope_kind != "worker" else repeat(now))
        out.extend(map(tuple.__new__, repeat(CoalescedMessage), zip(
            repeat(source // self._t), cols, batches, repeat(self._grouped),
            repeat(cause), stamps, repeat(source))))

    # -- flushes and queries ------------------------------------------------
    def flush(self, source: int, now: int) -> int:
        """Ship every non-empty buffer in source's row, in destination
        order, each departing at now (pp: no earlier than its newest item).
        Returns messages emitted."""
        return self._flush_row(source, now, None)

    def flush_expired(self, source: int, now: int) -> int:
        """Flush buffers in source's row whose first item is at least the
        timeout old, as flush does. Returns messages emitted, 0 at the cost
        of one comparison while the row's deadline floor is not due: the
        floor is never above a buffer's head, so then nothing is due, as a
        scan at that moment would decide."""
        tns = self.flush_timeout_ns
        if (tns is None
                or self._floors[source // self._owner_width] + tns > now):
            return 0
        return self._flush_row(source, now, tns)

    def _flush_row(self, source, now, tns):
        """Seal the buffers in source's row whose first item is tns old, or
        every non-empty one when tns is None, as flush ships them.

        A row is peeked at without its lock, by flush_expired at its
        deadline floor and here, for a flush, at whether it is empty; a
        skipped row is left alone. An item never changes and a buffer never
        empties in place, so a skip is what a locked check at the peek would
        decide; an insert after the peek waits for a later flush, as one
        after a locked check would. Otherwise the row is scanned under the
        lock, and the floor set to the earliest head left, so the next poll
        skips until that head is due. The floor is written only under the
        lock, where no insert can create a buffer the scan missed.
        """
        r = source // self._owner_width
        row = self._rows[r]
        if tns is None and not row:
            return 0
        sealed = []
        with self._locks[r]:
            floor = _NO_HEAD
            if tns is None:
                due = sorted(row)
            else:
                due = []
                for col, buf in row.items():
                    head = _head(buf)
                    if head + tns <= now:
                        due.append(col)
                    elif head < floor:
                        floor = head
                due.sort()
            self._floors[r] = floor
            self._seal(row, source, due, CAUSE_FLUSH, now, sealed)
        self._send(sealed, None)
        return len(sealed)

    # The threaded engine reads a row while others fill and seal it: a pp
    # row's workers, or the coordinator. list() copies a row in one C call,
    # which no other thread can interleave with; iterating the live dict
    # over several bytecodes could see it change size and raise. A seal
    # pops a buffer whole, so a non-empty copy keeps its first item; an
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
        answers in (deadline, owner) order. It reads every buffer's head,
        not the row's deadline floor, which is only a lower bound, and it
        leaves the floor alone, since it takes no lock."""
        tns = self.flush_timeout_ns
        if tns is None:
            return None
        head = min(map(_head, self._buffers(worker)), default=None)
        return None if head is None else head + tns

    def on_receive(self, msg: CoalescedMessage) -> list:
        """Delivery plan for an arrived message: [(worker, items), ...],
        grouped by destination worker here unless the sender grouped it.
        The transport asks only where dest_is_worker is False: wps, wsp and
        pp. A grouped message whose column is one worker, as ww's always
        is, has a single destination and owns its list or Batch, so a
        direct call's plan takes it whole."""
        items = msg[2]
        if not msg[3]:
            items = group_items(items, self.topo, self.grouping_stats)
        elif self._width == 1:
            return [(msg[1], items)]
        return split_grouped(items)


def create_aggregator(kind, topo: Topology, g: int,
                      item_bytes: int) -> Aggregator:
    """Build an aggregator of the given scheme for a topology."""
    return Aggregator(SchemeKind.parse(kind), topo, g, item_bytes)
