"""Span recording for the traced benchmark run.

The benchmark wraps its own calls into the library's public functions;
nothing inside `symf` is instrumented.  A span is one such call: its
name, start and end on the monotonic clock, the index of the enclosing
span (or None), the query it belongs to, and the number of terms in its
result when the result is a symmetric function.  Spans stay in memory
until the run ends.
"""

import time

# CLOCK_MONOTONIC on Linux: readings from different processes of one
# machine compare, which set-up times rely on.
clock = time.monotonic


def terms_of(value):
    """Number of terms of a SymFn result, or None for other results."""
    terms = getattr(value, "terms", None)
    return len(terms) if isinstance(terms, dict) else None


class Tracer:
    """Collects spans for one worker process."""

    def __init__(self):
        self.spans = []
        self.stack = []
        self.qid = None

    def call(self, name, fn, *args):
        index = len(self.spans)
        parent = self.stack[-1] if self.stack else None
        self.spans.append(None)
        self.stack.append(index)
        start = clock()
        try:
            out = fn(*args)
        finally:
            end = clock()
            self.stack.pop()
        self.spans[index] = [name, start, end, parent, self.qid, terms_of(out)]
        return out

    def wrap(self, name, fn):
        """`fn` with every call recorded as a span called `name`.

        `name` may be a function of the call's arguments, for calls whose
        layer depends on them (to_basis and its target basis).
        """
        def traced(*args):
            label = name(*args) if callable(name) else name
            return self.call(label, fn, *args)
        return traced


def self_times(spans):
    """Per-name totals over spans: self seconds, calls and result terms.

    Self time is a span's duration less the durations of its direct
    children, so nested layers are not counted twice.
    """
    child_time = [0.0] * len(spans)
    for name, start, end, parent, qid, terms in spans:
        if parent is not None:
            child_time[parent] += end - start
    out = {}
    for i, (name, start, end, parent, qid, terms) in enumerate(spans):
        entry = out.setdefault(name, {"s": 0.0, "calls": 0, "terms_out": 0})
        entry["s"] += (end - start) - child_time[i]
        entry["calls"] += 1
        entry["terms_out"] += terms or 0
    return out


def top_level_time(spans):
    """Seconds covered by spans that have no parent."""
    return sum(end - start for _, start, end, parent, _, _ in spans
               if parent is None)
