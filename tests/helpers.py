"""Test plumbing: a loopback transport for driving aggregators by hand,
and a whole-aggregator buffered count."""
from aggsim.schemes import create_aggregator
from aggsim.topology import Item


class LoopbackTransport:
    """Collects emitted messages and local deliveries for assertions.

    local holds one (dest, (item,), created_at) per locally delivered item,
    in hand-over order; local_calls counts the local_deliver calls that
    handed them over.
    """

    def __init__(self):
        self.messages = []
        self.local = []
        self.local_calls = 0

    def send(self, msg):
        self.messages.append(msg)

    def local_deliver(self, items):
        self.local_calls += 1
        self.local.extend((it[0], (it,), it[2]) for it in items)


def make_agg(kind, topo, g, item_bytes=8, timeout_ns=None):
    agg = create_aggregator(kind, topo, g, item_bytes)
    if timeout_ns is not None:
        agg.set_flush_timeout(timeout_ns)
    transport = LoopbackTransport()
    agg.bind(transport)
    return agg, transport


def total_buffered(agg):
    """Items buffered in the whole aggregator: owner_buffered summed over
    its flush owners."""
    return sum(map(agg.owner_buffered, agg.flush_owners()))


def mk_item(dest, seq, created_at=0, payload=None):
    return Item(dest, payload, created_at, seq)
