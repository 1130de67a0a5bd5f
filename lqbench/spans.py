"""Outside-in span recorder.

The benchmark wraps each call it makes into a public ``lqgame`` function in
``Tracer.call``.  With tracing on, every call becomes one span (name, start,
end, parent span, job id) kept in memory; ``Tracer.dump`` writes them out
once the run is over.  With tracing off, ``call`` is a plain call.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import asdict, dataclass


@dataclass
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: int | None
    job: int | None
    tag: str | None = None


class Tracer:
    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.spans: list[Span] = []
        self._next_id = 0
        self._job: int | None = None
        self._parent: int | None = None
        self._tag: str | None = None

    def _new_id(self) -> int:
        self._next_id += 1
        return self._next_id - 1

    @contextmanager
    def job(self, job_id: int):
        """Span of one job; layer spans recorded inside it are its children."""
        if not self.enabled:
            yield
            return
        span_id = self._new_id()
        self._job, self._parent = job_id, span_id
        start = time.perf_counter()
        try:
            yield
        finally:
            self.spans.append(Span(span_id, "job", start, time.perf_counter(),
                                   None, job_id))
            self._job = self._parent = None

    @contextmanager
    def tagged(self, tag: str):
        """Label the spans recorded inside, e.g. with an input size."""
        self._tag = tag
        try:
            yield
        finally:
            self._tag = None

    def call(self, name: str, fn, *args, **kwargs):
        """Call fn(*args, **kwargs), recording a span named ``name``."""
        if not self.enabled:
            return fn(*args, **kwargs)
        span_id = self._new_id()
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            self.spans.append(Span(span_id, name, start, time.perf_counter(),
                                   self._parent, self._job, self._tag))

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump([asdict(s) for s in self.spans], fh)


def self_times(spans: list[Span]) -> dict[int, float]:
    """Span id -> duration minus the part of it covered by child spans."""
    children = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            children[s.parent].append((s.start, s.end))
    out = {}
    for s in spans:
        covered, reach = 0.0, s.start
        for a, b in sorted(children[s.id]):
            a, b = max(a, reach, s.start), min(b, s.end)
            if b > a:
                covered += b - a
                reach = b
        out[s.id] = (s.end - s.start) - covered
    return out


def busy_by_name(spans: list[Span], tag=None) -> dict[str, float]:
    """Summed self time per span name, optionally only of spans with a tag."""
    own = self_times(spans)
    out: dict[str, float] = defaultdict(float)
    for s in spans:
        if tag is None or s.tag == tag:
            out[s.name] += own[s.id]
    return out
