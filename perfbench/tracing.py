"""In-memory span tracer that wraps module attributes.

While installed, the tracer replaces named module attributes with timing
wrappers and puts the originals back on exit. The program's modules call
each other through module attributes and their own globals, so wrapping
an attribute also catches internal calls such as
``reconstruct_process`` -> ``project_physical``.
"""

from __future__ import annotations

import contextlib
import functools
import time
from collections import Counter
from dataclasses import dataclass


@dataclass(frozen=True)
class Span:
    name: str
    start: float
    end: float
    parent: int | None  # index of the enclosing span in Tracer.spans
    op: int | None  # id of the benchmark op the span belongs to

    @property
    def duration(self):
        return self.end - self.start


class NullTracer:
    """Stand-in for untraced runs: records nothing and wraps nothing."""

    _NULL = contextlib.nullcontext()

    def span(self, name, op=None):
        return self._NULL

    def count(self, name, n=1):
        pass


class Tracer:
    def __init__(self):
        self.spans: list[Span | None] = []
        self.counts = Counter()
        self._stack: list[int] = []
        self._op = None
        self._installed = []  # (owner, attribute, original), in install order

    @contextlib.contextmanager
    def span(self, name, op=None):
        if op is not None:
            self._op = op
        idx = self._open()
        start = time.perf_counter()
        try:
            yield
        finally:
            self._close(idx, name, start)

    def count(self, name, n=1):
        self.counts[name] += n

    def _open(self):
        idx = len(self.spans)
        self.spans.append(None)
        self._stack.append(idx)
        return idx

    def _close(self, idx, name, start):
        end = time.perf_counter()
        self._stack.pop()
        parent = self._stack[-1] if self._stack else None
        self.spans[idx] = Span(name, start, end, parent, self._op)

    def wrap(self, owner, attribute, name, on_result=None):
        """Replace ``owner.attribute`` with a wrapper recording one span per call.

        ``name`` is a span name or a function of (args, kwargs) returning one;
        ``on_result(tracer, args, kwargs, result)`` runs after each call.
        """
        original = getattr(owner, attribute)
        span_name = name if callable(name) else (lambda args, kwargs: name)

        @functools.wraps(original)
        def traced(*args, **kwargs):
            idx = self._open()
            start = time.perf_counter()
            try:
                result = original(*args, **kwargs)
            finally:
                self._close(idx, span_name(args, kwargs), start)
            if on_result is not None:
                on_result(self, args, kwargs, result)
            return result

        setattr(owner, attribute, traced)
        self._installed.append((owner, attribute, original))

    def restore(self):
        while self._installed:
            owner, attribute, original = self._installed.pop()
            setattr(owner, attribute, original)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.restore()

    def by_name(self):
        """Span name -> list of (duration_s, self_s)."""
        child_time = [0.0] * len(self.spans)
        for span in self.spans:
            if span.parent is not None:
                child_time[span.parent] += span.duration
        out = {}
        for span, inner in zip(self.spans, child_time):
            out.setdefault(span.name, []).append((span.duration, span.duration - inner))
        return out

    def records(self):
        """Spans as JSON-ready dicts, in the order they were opened."""
        return [
            {
                "i": i,
                "name": s.name,
                "start": s.start,
                "end": s.end,
                "parent": s.parent,
                "op": s.op,
            }
            for i, s in enumerate(self.spans)
        ]
