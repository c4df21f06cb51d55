"""In-memory span recorder for one traced query, and the self-time computation.

A span is (name, start, end, parent).  Spans are appended to flat arrays
while the query runs and written out once, when it ends.  Because a traced
query runs on one thread, a span's children lie inside its interval, so a
span's self time is its duration minus the durations of its direct
children.

This module is imported by the traced child before ``thetacalc`` is, so it
imports nothing beyond the standard library modules ``array`` and ``time``.
"""

from __future__ import annotations

import functools
import time
from array import array

NO_PARENT = -1


class SpanRecorder:
    """Collects spans from wrapped callables; one recorder per query process."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack = [NO_PARENT]

    def wrap(self, name: str, fn, on_result=None):
        """Return ``fn`` wrapped so that every call records a span named ``name``.

        ``on_result`` is called with the arguments and the result after the
        span has ended, so the work it does is not charged to the span.
        """
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        nid = self._name_ids[name]
        clock = time.perf_counter
        stack = self._stack
        name_ids, parents, starts, ends = self.name_id, self.parent, self.start, self.end

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(name_ids)
            name_ids.append(nid)
            parents.append(stack[-1])
            starts.append(0.0)
            ends.append(0.0)
            stack.append(idx)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                starts[idx] = t0
                stack.pop()
            if on_result is not None:
                on_result(args, result)
            return result

        return traced

    def write(self, path: str) -> int:
        """Write the four span arrays to ``path``; returns the span count."""
        with open(path, "wb") as fh:
            for arr in (self.name_id, self.parent, self.start, self.end):
                arr.tofile(fh)
        return len(self.name_id)


def read_spans(path: str, count: int):
    """Inverse of ``SpanRecorder.write``: (name_id, parent, start, end) arrays."""
    arrays = (array("i"), array("i"), array("d"), array("d"))
    with open(path, "rb") as fh:
        for arr in arrays:
            arr.fromfile(fh, count)
    return arrays


def summarize(names, name_id, parent, start, end) -> dict[str, dict]:
    """Per span name: call count, total time, self time, and boundary entries.

    ``entries``/``entry_s`` count only spans whose parent belongs to another
    layer (the part of the name before the first dot), i.e. calls into the
    layer from outside it, so nested calls inside a layer are not counted
    twice.
    """
    n = len(name_id)
    dur = [end[i] - start[i] for i in range(n)]
    child = [0.0] * n
    for i in range(n):
        p = parent[i]
        if p != NO_PARENT:
            child[p] += dur[i]
    layer = [name.split(".", 1)[0] for name in names]
    out = {name: {"count": 0, "s": 0.0, "self_s": 0.0, "entries": 0, "entry_s": 0.0} for name in names}
    for i in range(n):
        row = out[names[name_id[i]]]
        row["count"] += 1
        row["s"] += dur[i]
        row["self_s"] += dur[i] - child[i]
        p = parent[i]
        if p == NO_PARENT or layer[name_id[p]] != layer[name_id[i]]:
            row["entries"] += 1
            row["entry_s"] += dur[i]
    return out
