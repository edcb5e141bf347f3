"""Span recording around the program's layer boundaries, from outside it.

A span is a name, a start, an end (``perf_counter_ns``) and the index of
the span that was open when it began (-1 at top level). Spans are kept in
flat arrays in memory and written out once, when the repetition ends. Only
per-batch and per-message boundaries are wrapped, never a per-item call, so
the recorder's own cost stays a small share of a run.
"""
from __future__ import annotations

import time
from array import array

import numpy as np


class SpanRecorder:
    def __init__(self):
        self.names = []
        self._ids = {}
        self.name_id = array("H")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("q")
        self._stack = [-1]

    def wrap(self, name, fn):
        """Return fn wrapped so that each call records one span."""
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        name_id, start, end, parent = (self.name_id, self.start, self.end,
                                       self.parent)
        stack = self._stack
        clock = time.perf_counter_ns

        def spanned(*args, **kwargs):
            i = len(start)
            name_id.append(nid)
            parent.append(stack[-1])
            end.append(0)
            stack.append(i)
            start.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                end[i] = clock()
                stack.pop()

        return spanned

    def patch(self, owner, attr, name):
        """Replace owner.attr (a class, module or instance attribute)."""
        setattr(owner, attr, self.wrap(name, getattr(owner, attr)))

    def spans(self, name):
        """(start, end) arrays of every span with this name, in start order."""
        nid, start, end, _ = self._arrays()
        mask = nid == self._ids[name]
        return start[mask], end[mask]

    def summary(self) -> dict:
        """name -> (calls, total ns, self ns).

        Self time is a span's duration minus the durations of its direct
        children, which nest inside it.
        """
        nid, start, end, parent = self._arrays()
        dur = (end - start).astype(np.float64)
        child = np.zeros(len(dur))
        nested = parent >= 0
        np.add.at(child, parent[nested], dur[nested])
        selft = dur - child
        n = len(self.names)
        calls = np.bincount(nid, minlength=n)
        total = np.bincount(nid, weights=dur, minlength=n)
        own = np.bincount(nid, weights=selft, minlength=n)
        return {name: (int(calls[i]), float(total[i]), float(own[i]))
                for i, name in enumerate(self.names)}

    def save(self, path) -> None:
        nid, start, end, parent = self._arrays()
        np.savez(path, names=np.array(self.names), name_id=nid, start=start,
                 end=end, parent=parent)

    def _arrays(self):
        # copies: a live view would pin the arrays against further appends
        return (np.array(self.name_id, dtype=np.uint16),
                np.array(self.start, dtype=np.int64),
                np.array(self.end, dtype=np.int64),
                np.array(self.parent, dtype=np.int64))
