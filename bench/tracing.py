"""Spans around the program's layer boundaries, recorded from outside.

``Tracer.wrap`` replaces a module attribute with a wrapper that records one
span per call: (name, start, end, parent span index, call id, attributes).
The wrapper reads only fields of the returned value (``OptimizeResult``
status and counts, ``ThetaResult`` iterations and gap), so the program
computes exactly what it computes untraced.  Because the program looks its
module globals up at call time, wrapping ``optimize.minimize`` also catches
the calls ``optimize`` makes internally.  Spans stay in memory until
``write``.
"""

from __future__ import annotations

import gzip
import json
import time
from collections import defaultdict
from typing import Callable, NamedTuple, Optional


class Span(NamedTuple):
    name: str
    start: float
    end: float
    parent: int
    call: int
    attrs: tuple


class Tracer:
    def __init__(self):
        self.spans: list[Optional[Span]] = []
        self.call = 0
        self._open: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def wrap(self, module, attr: str, name: str, read: Optional[Callable] = None) -> None:
        """Record a span named ``name`` around every call of ``module.attr``;
        ``read(result, args)`` returns the span's attributes."""
        original = getattr(module, attr)
        spans, open_stack = self.spans, self._open

        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = open_stack[-1] if open_stack else -1
            open_stack.append(index)
            start = time.perf_counter()
            try:
                result = original(*args, **kwargs)
            finally:
                end = time.perf_counter()
                open_stack.pop()
                spans[index] = Span(name, start, end, parent, self.call, ())
            if read is not None:
                spans[index] = spans[index]._replace(attrs=read(result, args))
            return result

        setattr(module, attr, traced)
        self._patched.append((module, attr, original))

    def record(self, name: str, start: float, end: float, attrs: tuple = ()) -> None:
        """A span measured by the caller, outside any wrapper."""
        parent = self._open[-1] if self._open else -1
        self.spans.append(Span(name, start, end, parent, self.call, attrs))

    def unwrap(self) -> None:
        while self._patched:
            module, attr, original = self._patched.pop()
            setattr(module, attr, original)

    def write(self, path: str) -> None:
        """One JSON array per line: name, start, end, parent, call, attrs."""
        with gzip.open(path, "wt") as out:
            for span in self.spans:
                out.write(json.dumps(list(span)) + "\n")


class SpanIndex:
    """Per-name views of a span list, with self time (duration minus the
    part covered by direct children)."""

    def __init__(self, spans: list[Span]):
        self.spans = spans
        self.by_name: dict[str, list[int]] = defaultdict(list)
        child_time = [0.0] * len(spans)
        for index, span in enumerate(spans):
            self.by_name[span.name].append(index)
            if span.parent >= 0:
                child_time[span.parent] += span.end - span.start
        self.child_time = child_time

    def of(self, name: str) -> list[Span]:
        return [self.spans[i] for i in self.by_name.get(name, ())]

    def count(self, name: str) -> int:
        return len(self.by_name.get(name, ()))

    def busy(self, name: str) -> float:
        """Wall time inside the outermost spans of this name."""
        total = 0.0
        for index in self.by_name.get(name, ()):
            if not self._inside(index, name):
                total += self.spans[index].end - self.spans[index].start
        return total

    def self_time(self, name: str) -> float:
        return sum(
            self.spans[i].end - self.spans[i].start - self.child_time[i]
            for i in self.by_name.get(name, ())
        )

    def enclosing(self, index: int, names: tuple[str, ...]) -> Optional[str]:
        """Name of the nearest ancestor among ``names``, if any."""
        parent = self.spans[index].parent
        while parent >= 0:
            if self.spans[parent].name in names:
                return self.spans[parent].name
            parent = self.spans[parent].parent
        return None

    def _inside(self, index: int, name: str) -> bool:
        return self.enclosing(index, (name,)) is not None
