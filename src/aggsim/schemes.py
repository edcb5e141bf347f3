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
entirely and go straight to the local delivery queue, through the
transport's local_deliver(dest, items, now); shared-memory delivery needs no
coalescing. The modelled layout (allocated_bytes) still counts ww's buffers
for same-process destinations, but they are never filled.

The buffered items are the only buffer state. A worker's buffer row holds
only its non-empty buffers, created on first insert and dropped at seal. A
buffer's timeout deadline is its oldest item's created_at plus the timeout,
and a pp message departs no earlier than its newest item's created_at. No
scheme counts its inserts: every buffered item leaves in exactly one
message, so the engine counts items per scope from the messages it is sent.

A buffer emits exactly when it reaches g items (cause "full", k == g) or when
flushed while non-empty (cause "flush", k < g, message resized to k).

Every seal builds its CoalescedMessage with tuple.__new__ and hands it
straight to transport.send, one call per message, in emit order: a flush
seals in ascending destination order. For ww/wps/wsp one helper, _seal,
does that for a list of columns.

The queries the engines make are the same for every layout, so Aggregator
writes them once: flush, flush_expired, next_deadline, owner_buffered and
buffers_per_owner. A buffer family (ww/wps/wsp's per-worker rows, pp's
shared rows) supplies only where items wait: _buffers, a lock-free snapshot
of a scope's non-empty buffers, and _flush_row, which picks a scope's due
buffers and seals them.

A chunk is a list of Items (insert_batch) or a column chunk, a Batch of
int64 columns (insert_columns). ww/wps/wsp split a column chunk by column
with one stable argsort; a buffer it fills keeps the chunk's column slices
and seals them into one Batch, which the message carries and on_receive
groups with one stable argsort of dest, so a delivery group may be a
Batch or a list of Items. The chunk's same-process items still go to
local_deliver one Item at a time. A buffer that both kinds of chunk fill
seals into a list of Items. pp takes a column chunk as Items, and the
threaded engine inserts one as Items, so its aggregator sees only lists.
"""
from __future__ import annotations

import threading
from collections import defaultdict
from enum import Enum
from itertools import groupby, repeat
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
    """created_at of a ww/wps/wsp buffer's oldest item."""
    return buf[0][2] if type(buf) is list else buf.head()


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
    """A ww/wps/wsp buffer that a column chunk filled.

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


class _SharedBuffer:
    """pp buffer shared by all workers of one source process.

    Every change runs under the buffer mutex, which linearizes the
    append-and-seal protocol; a flush may peek at the first item without
    it, and next_deadline and owner_buffered read the list without it. items holds the buffered items, oldest first.
    """

    __slots__ = ("items", "lock")

    def __init__(self):
        self.items = []
        self.lock = threading.Lock()


class Aggregator:
    """Base class: buffer bookkeeping common to all schemes.

    Subclasses own the layout. An aggregator is inert until bind() attaches a
    transport (the engine); create -> spawn is the intended order, and a
    second spawn on the same instance is refused. The transport offers
    send(msg), called once per sealed message, and local_deliver(dest,
    items, now), called once per same-process item.

    The engines ask it per flush owner (flush_owners): owner_buffered, the
    items in that owner's scope, and next_deadline, the one deadline query.
    Those two, flush, flush_expired and buffers_per_owner are written here,
    once for every layout. A subclass supplies insert_batch, _buffers (a
    lock-free snapshot of a scope's non-empty buffers) and _flush_row (the
    seal of a scope's buffers, all of them or the due ones), and sets _cols;
    on_receive is shared but for ww's.
    """

    kind: SchemeKind  # set by each scheme class
    scope_kind = "worker"  # flush/accounting scope; pp overrides

    def __init__(self, topo: Topology, g: int, item_bytes: int):
        if g < 1:
            raise UsageError(f"g must be >= 1, got {g}")
        if item_bytes < 1:
            raise UsageError(f"item_bytes must be >= 1, got {item_bytes}")
        self.topo = topo
        self.g = g
        self.item_bytes = item_bytes
        self.flush_timeout_ns: Optional[int] = None
        self.grouping_stats = GroupingStats()
        self._transport = None
        self._t = topo.workers_per_proc
        self._w = topo.total_workers
        self._n = topo.total_processes

    # -- wiring -----------------------------------------------------------
    def bind(self, transport) -> None:
        if self._transport is not None:
            raise UsageError("aggregator is already attached to a run")
        self._transport = transport

    def set_flush_timeout(self, timeout_ns: Optional[int]) -> None:
        """Flush a buffer once its oldest item is timeout_ns old; None turns
        timeout flushing off. Set it before spawning the run."""
        if timeout_ns is not None and timeout_ns <= 0:
            raise UsageError("flush timeout must be a positive ns count")
        self.flush_timeout_ns = timeout_ns

    def _check(self, source: int, dest: int):
        """Raise for a bad insert. insert_batch() tests the same conditions
        on the whole chunk and calls this per item only when they fail."""
        if not 0 <= dest < self._w:
            raise UsageError(f"destination worker {dest} out of range")
        if self._transport is None:
            raise SetupError("aggregator not attached to a run")

    def _check_batch(self, source, items):
        """Raise what the first bad item of items would raise. An unbound
        aggregator refuses an empty chunk too."""
        w = self._w
        if items and self._transport is not None:
            if len(items) == 1:
                if 0 <= items[0][0] < w:
                    return
            elif 0 <= min(map(_DEST, items)) and max(map(_DEST, items)) < w:
                return
        self._refuse(source, map(_DEST, items))

    def _refuse(self, source, dests):
        """Raise what the first bad destination of a chunk would raise, or
        SetupError when the aggregator is unbound; return when neither."""
        for d in dests:
            self._check(source, d)
        if self._transport is None:
            raise SetupError("aggregator not attached to a run")

    # -- introspection ------------------------------------------------------
    def buffers_per_owner(self) -> int:
        """Buffers one flush owner's scope allocates: one per column."""
        return self._cols

    def allocated_bytes(self) -> dict:
        """Modeled buffer bytes: every allocated buffer holds g slots of
        item_bytes each. Matches the analytic memory overhead by construction
        of the layout, which is exactly what the cross-check pins down."""
        per_owner = self.buffers_per_owner() * self.g * self.item_bytes
        if self.scope_kind == "worker":
            return {"per_core_bytes": per_owner,
                    "per_process_bytes": per_owner * self._t}
        return {"per_core_bytes": 0, "per_process_bytes": per_owner}

    def flush_owners(self) -> range:
        """Worker ids whose flush() calls cover every buffer exactly once."""
        if self.scope_kind == "worker":
            return range(self._w)
        return range(0, self._w, self._t)

    # -- scheme API (subclasses) -------------------------------------------
    def insert(self, source: int, item: Item) -> None:
        """insert_batch of the one item."""
        self.insert_batch(source, (item,))

    def insert_batch(self, source: int, items: Sequence[Item]) -> None:
        """Buffer one source's chunk in order, or hand items to local
        delivery. An item's created_at is its insert's time: it stamps a
        local delivery and a seal on full, and starts the flush timeout of
        an empty buffer. The chunk is checked whole first, so a bad item
        leaves no effect at all."""
        raise NotImplementedError

    def insert_columns(self, source: int, batch: Batch) -> None:
        """insert_batch of a column chunk, with the same effects. This one
        takes it as Items; ww/wps/wsp buffer its columns."""
        self.insert_batch(source, list(batch))

    def flush(self, source: int, now: int) -> int:
        """Ship every non-empty buffer in source's scope, in destination
        order, each departing at now (pp: no earlier than its newest item).
        Returns messages emitted."""
        return self._flush_row(source, now, None)

    def on_receive(self, msg: CoalescedMessage) -> list:
        """Delivery plan for an arrived message: [(worker, items), ...],
        grouped by destination worker here unless the sender grouped it."""
        items = msg[2]
        if msg[3]:
            return split_grouped(items)
        return split_grouped(group_items(items, self.topo,
                                         self.grouping_stats))

    def owner_buffered(self, worker: int) -> int:
        """Items currently buffered in the scope worker would flush."""
        return sum(map(len, self._buffers(worker)))

    # -- timeout flush support ----------------------------------------------
    def next_deadline(self, worker: int) -> Optional[int]:
        """Earliest timeout deadline among the buffers worker's flush_expired
        covers, or None when they are empty or no timeout is set. It is the
        one deadline query: it reads only that scope, so an owner thread can
        ask while others insert, and the sequential engine walks the owners'
        answers in (deadline, owner) order."""
        tns = self.flush_timeout_ns
        if tns is None:
            return None
        oldest = min(map(_head, self._buffers(worker)), default=None)
        return None if oldest is None else oldest + tns

    def flush_expired(self, source: int, now: int) -> int:
        """Flush buffers in source's scope whose first item is at least the
        timeout old, as flush does. Returns messages emitted."""
        tns = self.flush_timeout_ns
        if tns is None:
            return 0
        return self._flush_row(source, now, tns)

    def _buffers(self, worker: int) -> list:
        """The non-empty buffers in worker's scope, copied without a lock;
        each has len() and an oldest item that _head reads."""
        raise NotImplementedError

    def _flush_row(self, source: int, now: int, tns: Optional[int]) -> int:
        """Seal the buffers in source's scope whose first item is tns old,
        or every non-empty one when tns is None, as flush ships them.
        Returns messages emitted."""
        raise NotImplementedError


class _WorkerBufferedAggregator(Aggregator):
    """Common machinery for ww/wps/wsp: per-source-worker buffer rows.

    A row has one column per destination scope, dest // width: the
    destination worker for ww (width 1), its process for wps/wsp (width t).
    A row maps each non-empty buffer's column to its items; a seal pops it.
    """

    _per_process = False
    _grouped = True            # a message's items are dest-contiguous
    _group_at_source = False   # wsp sorts each sealed batch before sending

    def __init__(self, topo, g, item_bytes):
        super().__init__(topo, g, item_bytes)
        self._width = self._t if self._per_process else 1
        self._cols = self._w // self._width
        self._rows = [defaultdict(list) for _ in range(self._w)]

    # The threaded coordinator reads rows while owner threads fill and seal
    # them. list() copies a row in one C call, which no other thread can
    # interleave with. Iterating the live dict over several bytecodes could
    # see it change size and raise; so can sum(map(len, row.values())),
    # whose iterator is made one call before sum() consumes it.
    def _buffers(self, worker):
        return list(self._rows[worker].values())

    def insert_batch(self, source, items):
        self._check_batch(source, items)
        t = self._t
        width = self._width
        lo = (source // t) * t // width     # source process's columns
        hi = lo + t // width
        g = self.g
        row = self._rows[source]
        local_deliver = self._transport.local_deliver
        for it in items:
            col = it[0] // width
            if lo <= col < hi:
                local_deliver(it[0], (it,), it[2])
                continue
            buf = row[col]
            buf.append(it)
            if len(buf) == g:
                self._seal(source, (col,), CAUSE_FULL, it[2])

    def insert_columns(self, source, batch):
        # One stable argsort of the columns splits the chunk into runs, each
        # in chunk order. The runs' buffer fills are sealed in the chunk
        # order of their filling items, each sent at that item's stamp, as
        # the item loop sends them; what is left of each run is then
        # buffered. Same-process items go to local_deliver as one-item Item
        # entries, in chunk order.
        data = batch.data
        dest = data[0]
        if not (dest.size and self._transport is not None
                and dest.min() >= 0 and dest.max() < self._w):
            self._refuse(source, dest.tolist())
            return  # an empty chunk
        width = self._width
        col = dest // width if width > 1 else dest
        order = _stable_order(col, self._cols)
        data = data.take(order, axis=1)
        t = self._t
        lo = (source // t) * t // width     # source process's columns
        hi = lo + t // width
        g = self.g
        row = self._rows[source]
        local = None   # the run of same-process columns, [start, end)
        fills = []     # (filling item's chunk position, col, start, end)
        rests = []     # (col, start, end) left buffered
        e = 0
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
        if local is not None:
            s, e = local
            items = data[:, s:e]
            if hi - lo > 1:  # ww: back to chunk order across destinations
                items = items[:, order[s:e].argsort()]
            local_deliver = self._transport.local_deliver
            for it in map(tuple.__new__, repeat(Item), zip(*items.tolist())):
                local_deliver(it[0], (it,), it[2])
        fills.sort()  # the positions differ, so nothing else compares
        for _, c, s, f in fills:
            _extend(row, c, data[:, s:f])
            self._seal(source, (c,), CAUSE_FULL, int(data[2, f - 1]))
        for c, s, e in rests:
            _extend(row, c, data[:, s:e])

    def _seal(self, source, cols, cause, now):
        """Take source's buffers cols out of its row, in order, and send each
        at now as one message, straight to the transport. Returns len(cols).

        A full seal passes its one column, flush the sorted row and
        flush_expired the sorted due columns. wsp groups each batch here,
        and a buffer filled by a column chunk seals into one Batch.
        """
        pop = self._rows[source].pop
        send = self._transport.send
        new = tuple.__new__
        origin = source // self._t
        grouped = self._grouped
        at_source = self._group_at_source
        topo, stats = self.topo, self.grouping_stats
        for col in cols:
            batch = pop(col)
            if type(batch) is _Slices:
                batch = batch.seal()
            if at_source:
                batch = group_items(batch, topo, stats)
            send(new(CoalescedMessage, (origin, col, batch, grouped, cause,
                                        now, source)))
        return len(cols)

    def _flush_row(self, source, now, tns):
        row = self._rows[source]
        if not row:
            return 0
        return self._seal(source, sorted(
            row if tns is None else
            (col for col, buf in row.items() if _head(buf) + tns <= now)),
            CAUSE_FLUSH, now)


class _WWAggregator(_WorkerBufferedAggregator):
    """ww: one buffer per destination worker at each source worker."""

    kind = SchemeKind.WW

    def on_receive(self, msg):
        # single destination: trivially contiguous; each message owns its
        # list or Batch, so the group takes it whole
        return [(msg[1], msg[2])]


class _ProcBufferedAggregator(_WorkerBufferedAggregator):
    """wps/wsp: one buffer per destination process at each source worker."""

    _per_process = True
    _grouped = False


class _WPsAggregator(_ProcBufferedAggregator):
    kind = SchemeKind.WPS


class _WsPAggregator(_ProcBufferedAggregator):
    """wsp groups at the source worker, so receivers only split runs."""

    kind = SchemeKind.WSP
    _grouped = True
    _group_at_source = True


class _PPAggregator(Aggregator):
    """pp: one shared buffer per destination process on each source process."""

    kind = SchemeKind.PP
    scope_kind = "process"

    def __init__(self, topo, g, item_bytes):
        super().__init__(topo, g, item_bytes)
        n = self._cols = self._n
        self._shared = [[_SharedBuffer() for _ in range(n)] for _ in range(n)]

    def _buffers(self, worker):
        # Lock-free: each buffer's list is read once. An insert only extends
        # a list and a take replaces it with a new one, so a list never
        # empties in place and its oldest item never changes; a snapshot
        # list stays non-empty with the head it was read with.
        return [items for b in self._shared[worker // self._t]
                if (items := b.items)]

    def insert_batch(self, source, items):
        # One pass splits the chunk by destination process into parts of
        # chunk positions, each in chunk order; the part keys check the
        # chunk. A remote part then takes its buffer's lock once, so other
        # workers' inserts interleave per chunk, and the messages it seals
        # are sent after every lock is released, in the chunk order of their
        # filling items, as one-item chunks would send them.
        t = self._t
        n = self._n
        parts = {}
        get = parts.get
        ok = self._transport is not None
        for i, it in enumerate(items):
            dp = it[0] // t
            p = get(dp)
            if p is None:
                if not 0 <= dp < n:
                    ok = False
                parts[dp] = p = []
            p.append(i)
        if not (ok and parts):
            self._check_batch(source, items)
            return
        sp = source // t
        row = self._shared[sp]
        g = self.g
        take = self._take
        at = items.__getitem__
        sealed = []  # (filling item's chunk position, dp, taken buffer)
        for dp, pos in parts.items():
            if dp == sp:
                local_deliver = self._transport.local_deliver
                for it in map(at, pos):
                    local_deliver(it[0], (it,), it[2])
                continue
            part = list(map(at, pos))
            b = row[dp]
            with b.lock:
                lo = 0
                end = g - len(b.items)
                while end <= len(part):
                    b.items.extend(part[lo:end])
                    sealed.append((pos[end - 1], dp,
                                   take(b, part[end - 1][2])))
                    lo = end
                    end += g
                b.items.extend(part[lo:] if lo else part)
        if sealed:
            sealed.sort()  # the positions differ, so nothing else compares
            send = self._transport.send
            new = tuple.__new__
            for _, dp, (batch, seal_ts) in sealed:
                send(new(CoalescedMessage, (sp, dp, batch, False, CAUSE_FULL,
                                            seal_ts, source)))

    @staticmethod
    def _take(b, now):
        """Empty b, whose lock the caller holds; returns (items, departure
        ns). Contributors have independent clocks, so the departure is no
        earlier than the newest item's created_at."""
        buf = b.items
        b.items = []
        return buf, max(now, max(map(_CREATED, buf)))

    def _flush_row(self, source, now, tns):
        """Ship the non-empty buffers of source's process in destination
        order, each straight to the transport; with tns set, only those
        whose first item is tns old.

        Each buffer is first peeked at without its lock and skipped when
        empty or not yet due. The peek copies at most the first item in one
        C call, which no other thread can interleave with, and an item never
        changes, so a skip is what a locked check at the peek would decide;
        an insert after the peek waits for a later flush, as one after a
        locked check would. A buffer the peek picks is checked again under
        the lock.
        """
        sp = source // self._t
        take = self._take
        send = self._transport.send
        new = tuple.__new__
        n = 0
        for dp, b in enumerate(self._shared[sp]):
            head = b.items[:1]
            if not head or (tns is not None and head[0][2] + tns > now):
                continue
            with b.lock:
                if not b.items or (tns is not None
                                   and b.items[0][2] + tns > now):
                    continue
                buf, seal_ts = take(b, now)
            send(new(CoalescedMessage, (sp, dp, buf, False, CAUSE_FLUSH,
                                        seal_ts, source)))
            n += 1
        return n


_SCHEME_CLASSES = {cls.kind: cls for cls in (
    _WWAggregator, _WPsAggregator, _WsPAggregator, _PPAggregator)}


def create_aggregator(kind, topo: Topology, g: int,
                      item_bytes: int) -> Aggregator:
    """Build an aggregator of the given scheme for a topology."""
    return _SCHEME_CLASSES[SchemeKind.parse(kind)](topo, g, item_bytes)
