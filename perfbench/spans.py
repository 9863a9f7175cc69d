"""Span recording for the traced run, from the benchmark's own files.

The traced run wraps named public functions of the ``repro`` layers
(:func:`patched`) so that every call records one span -- name, start,
end, parent -- into a :class:`SpanRecorder`.  The recorder keeps every
span in flat ``array('q')`` columns (32 bytes a span), so nothing is
dropped: a traced serving round records about 370,000 spans and a
hammer round about 700,000, which a fixed-size ring such as
``repro.obs.trace.TraceRecorder``'s 65,536 events would silently
truncate.

Self time is a span's duration minus the part of it that its child
spans cover (:func:`self_times`).  :func:`write_chrome` writes the
spans in the Chrome ``trace_event`` shape that
``repro.obs.trace.chrome_trace`` emits, gzipped (Perfetto opens
``.json.gz`` directly).
"""

from __future__ import annotations

import gzip
import importlib
import json
import time
from array import array
from contextlib import contextmanager

__all__ = [
    "SpanRecorder",
    "aggregate",
    "patched",
    "resolve",
    "self_times",
    "write_chrome",
]


class SpanRecorder:
    """Unbounded in-memory span store for one thread."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_id = array("q")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("q")
        self._stack: list[int] = []

    def intern(self, name: str) -> int:
        """The integer id of a span name (stable for the recorder)."""
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def begin(self, nid: int) -> int:
        index = len(self.start)
        self.name_id.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.end.append(-1)
        self._stack.append(index)
        self.start.append(time.perf_counter_ns())
        return index

    def finish(self, index: int) -> None:
        self.end[index] = time.perf_counter_ns()
        self._stack.pop()

    def __len__(self) -> int:
        return len(self.start)

    @property
    def dropped(self) -> int:
        """Spans begun but never finished (0 after a clean run)."""
        return sum(1 for end in self.end if end < 0)


def self_times(starts, ends, parents) -> list[int]:
    """Per span: duration minus the union of its children's intervals.

    ``parents[i]`` is the index of span ``i``'s parent, or ``-1``.
    Children are clipped to their parent's interval, and overlapping
    siblings are counted once.  Linear when spans are given in start
    order (as a :class:`SpanRecorder` stores them).
    """
    count = len(starts)
    order = range(count)
    if any(starts[i] > starts[i + 1] for i in range(count - 1)):
        order = sorted(order, key=starts.__getitem__)
    covered = [0] * count
    reach = [None] * count  # the furthest end covered so far, per parent
    for i in order:
        p = parents[i]
        if p < 0:
            continue
        lo = max(starts[i], starts[p])
        hi = min(ends[i], ends[p])
        if reach[p] is not None:
            lo = max(lo, reach[p])
        if hi > lo:
            covered[p] += hi - lo
            reach[p] = hi
    return [ends[i] - starts[i] - covered[i] for i in range(count)]


def aggregate(recorder: SpanRecorder) -> dict[str, dict[str, float]]:
    """Per span name: ``calls``, ``self_ms`` and ``incl_ms``.

    ``incl_ms`` sums the durations of spans whose direct parent has
    another name, so a function that re-enters itself is not counted
    twice.
    """
    selfs = self_times(recorder.start, recorder.end, recorder.parent)
    table = {
        name: {"calls": 0, "self_ms": 0.0, "incl_ms": 0.0}
        for name in recorder.names
    }
    names, nids, parents = recorder.names, recorder.name_id, recorder.parent
    for i, nid in enumerate(nids):
        row = table[names[nid]]
        row["calls"] += 1
        row["self_ms"] += selfs[i] / 1e6
        p = parents[i]
        if p < 0 or nids[p] != nid:
            row["incl_ms"] += (recorder.end[i] - recorder.start[i]) / 1e6
    return table


def resolve(target):
    """``"pkg.module"`` or ``"pkg.module:Class"`` -> the object; any
    other object is its own owner."""
    if not isinstance(target, str):
        return target
    module_name, _, class_name = target.partition(":")
    owner = importlib.import_module(module_name)
    return getattr(owner, class_name) if class_name else owner


_INHERITED = object()


def _wrap(recorder: SpanRecorder, nid: int, fn):
    begin, finish = recorder.begin, recorder.finish

    def traced(*args, **kwargs):
        index = begin(nid)
        try:
            return fn(*args, **kwargs)
        finally:
            finish(index)

    traced.__wrapped__ = fn
    return traced


@contextmanager
def patched(recorder: SpanRecorder, wraps):
    """Wrap ``(span_name, target, attribute)`` triples for the body.

    ``target`` is resolved by :func:`resolve`; a class attribute is
    wrapped on that class (an inherited one is restored by deleting
    the override again).  Every original is restored on exit.
    """
    undo = []
    try:
        for span_name, target, attribute in wraps:
            owner = resolve(target)
            own = vars(owner).get(attribute, _INHERITED)
            if isinstance(own, (staticmethod, classmethod)):
                raise TypeError(f"{target}.{attribute}: only plain functions")
            original = getattr(owner, attribute)
            nid = recorder.intern(span_name)
            setattr(owner, attribute, _wrap(recorder, nid, original))
            undo.append((owner, attribute, own))
        yield recorder
    finally:
        for owner, attribute, own in reversed(undo):
            if own is _INHERITED:
                delattr(owner, attribute)
            else:
                setattr(owner, attribute, own)


def write_chrome(recorder: SpanRecorder, path: str) -> None:
    """Stream the spans to ``path`` (gzip) as Chrome ``trace_event``
    JSON: ``X`` events in microseconds from the earliest span, with the
    span's id and its parent's id in ``args`` -- the shape
    ``repro.obs.trace.chrome_trace`` emits."""
    origin = min(recorder.start) if len(recorder) else 0
    names = [json.dumps(name) for name in recorder.names]
    starts, ends, parents = recorder.start, recorder.end, recorder.parent
    with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as out:
        out.write('{"traceEvents": [')
        for i, nid in enumerate(recorder.name_id):
            parent = parents[i] + 1 if parents[i] >= 0 else "null"
            out.write(
                f'{", " if i else ""}{{"name": {names[nid]}, "ph": "X", '
                f'"ts": {(starts[i] - origin) / 1e3}, '
                f'"dur": {(ends[i] - starts[i]) / 1e3}, "pid": 0, "tid": 0, '
                f'"args": {{"id": {i + 1}, "parent": {parent}}}}}'
            )
        out.write('], "displayTimeUnit": "ms"}')
