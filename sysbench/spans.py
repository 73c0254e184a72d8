"""Outside-in span recorder for the benchmark's traced mode.

The benchmark never edits the program it measures.  To see where time
goes it shadows public methods of objects it built itself (runner,
strategies, models, pool) with instance attributes that time each call
as a *span*: name, start, end, parent span and the request or batch id
(``tag``).  Spans stay in memory and are written out when the run ends.

A layer's *self time* is its span time minus the part of that interval
covered by its child spans; overlapping children are merged first, so a
parent with two concurrent children is not charged negative time.
"""

from __future__ import annotations

import functools
import itertools
import json
import threading
import time
from dataclasses import dataclass

__all__ = ["Span", "SpanRecorder", "layer_stats", "self_times"]


@dataclass(frozen=True)
class Span:
    """One timed interval: ``[start, end]`` seconds on the recorder clock."""

    span_id: int
    name: str
    start: float
    end: float
    parent: int = None
    tag: object = None
    rows: int = 0

    @property
    def duration(self):
        return self.end - self.start


class SpanRecorder:
    """Collects spans; each thread keeps its own stack of open spans.

    ``span`` nests under the innermost open span of the calling thread
    and inherits its tag unless given one.  ``record`` adds an interval
    measured elsewhere (an awaited request, say) under an explicit
    parent, which is how overlapping children arise.
    """

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._wrapped = []

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def span(self, name, tag=None, rows=0):
        """Context manager timing one span; yields its id."""
        return _OpenSpan(self, name, tag, rows)

    def record(self, name, start, end, parent=None, tag=None, rows=0):
        """Add an already measured interval; returns its span id."""
        span_id = next(self._ids)
        self.spans.append(Span(span_id, name, start, end, parent, tag, rows))
        return span_id

    def wrap(self, obj, method, name, rows=None):
        """Shadow ``obj.method`` with a traced instance attribute.

        ``rows(args)`` optionally counts the work units of a call from
        its positional arguments.  Returns ``False`` (and wraps nothing)
        when the object has no such method or it is already wrapped.
        """
        if any(o is obj and m == method for o, m, _ in self._wrapped):
            return False
        bound = getattr(obj, method, None)
        if not callable(bound):
            return False
        previous = obj.__dict__.get(method, _MISSING)
        recorder = self

        @functools.wraps(bound)
        def traced(*args, **kwargs):
            with recorder.span(name, rows=rows(args) if rows else 0):
                return bound(*args, **kwargs)

        setattr(obj, method, traced)
        self._wrapped.append((obj, method, previous))
        return True

    def unwrap_all(self):
        """Restore every wrapped method, newest first."""
        while self._wrapped:
            obj, method, previous = self._wrapped.pop()
            if previous is _MISSING:
                delattr(obj, method)
            else:
                setattr(obj, method, previous)

    def dump(self, path):
        """Write every span as one JSON document."""
        fields = ("span_id", "name", "start", "end", "parent", "tag", "rows")
        rows = [[getattr(s, f) for f in fields] for s in self.spans]
        with open(path, "w") as handle:
            json.dump({"fields": fields, "spans": rows}, handle)


class _OpenSpan:
    def __init__(self, recorder, name, tag, rows):
        self.recorder = recorder
        self.name = name
        self.tag = tag
        self.rows = rows

    def __enter__(self):
        stack = self.recorder._stack()
        self.parent, parent_tag = stack[-1] if stack else (None, None)
        if self.tag is None:
            self.tag = parent_tag
        self.span_id = next(self.recorder._ids)
        stack.append((self.span_id, self.tag))
        self.start = self.recorder.clock()
        return self.span_id

    def __exit__(self, *exc_info):
        end = self.recorder.clock()
        self.recorder._stack().pop()
        self.recorder.spans.append(Span(
            self.span_id, self.name, self.start, end, self.parent, self.tag,
            self.rows))
        return False


_MISSING = object()


def _covered(intervals, start, end):
    """Length of the union of ``intervals`` clipped to ``[start, end]``."""
    clipped = sorted((max(a, start), min(b, end)) for a, b in intervals)
    total = 0.0
    cursor = start
    for a, b in clipped:
        a = max(a, cursor)
        if b > a:
            total += b - a
            cursor = b
    return total


def self_times(spans):
    """``{span_id: self seconds}``: duration minus merged child coverage."""
    children = {}
    for span in spans:
        if span.parent is not None:
            children.setdefault(span.parent, []).append((span.start, span.end))
    return {
        span.span_id: span.duration - _covered(
            children.get(span.span_id, ()), span.start, span.end)
        for span in spans
    }


def layer_stats(spans):
    """Per span name: calls, busy seconds, self seconds and rows.

    ``calls``, ``busy_s`` and ``rows`` count only the outermost span of
    a name, so a traced method calling another traced method of the same
    layer is one call; ``self_s`` sums the self time of every span of
    the name, so it never double-counts either.
    """
    by_id = {span.span_id: span for span in spans}
    own = self_times(spans)
    stats = {}
    for span in spans:
        entry = stats.setdefault(
            span.name, {"calls": 0, "busy_s": 0.0, "self_s": 0.0, "rows": 0})
        entry["self_s"] += own[span.span_id]
        ancestor = by_id.get(span.parent)
        while ancestor is not None and ancestor.name != span.name:
            ancestor = by_id.get(ancestor.parent)
        if ancestor is None:
            entry["calls"] += 1
            entry["busy_s"] += span.duration
            entry["rows"] += span.rows
    return stats
