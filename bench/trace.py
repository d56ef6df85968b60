"""The benchmark's own span recorder.

Spans are recorded around the calls the benchmark makes into each layer
(never inside the program), kept in memory, and written out once at the
end of a run.  A span is ``name, start, end, parent`` plus the id of the
solve it belongs to; a layer's self time is its duration minus the time
its child spans cover.
"""

from __future__ import annotations

import contextlib
import itertools
import json
import threading
import time
from collections import defaultdict
from dataclasses import asdict, dataclass, field
from typing import Any, Dict, Iterator, List, Optional


@dataclass
class Span:
    span_id: int
    name: str
    solve: int
    parent: Optional[int]
    start: float
    end: float = 0.0
    attrs: Dict[str, Any] = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Recorder:
    """Collects spans; a disabled recorder costs one attribute test."""

    def __init__(self, enabled: bool = True) -> None:
        self.enabled = enabled
        self.spans: List[Span] = []
        #: Id shared by every span of one solve; the caller advances it.
        self.solve = 0
        self._ids = itertools.count(1)
        self._local = threading.local()

    @contextlib.contextmanager
    def span(self, name: str, **attrs: Any) -> Iterator[Optional[Span]]:
        if not self.enabled:
            yield None
            return
        stack = self._local.__dict__.setdefault("stack", [])
        record = Span(
            span_id=next(self._ids),
            name=name,
            solve=self.solve,
            parent=stack[-1].span_id if stack else None,
            start=time.perf_counter(),
            attrs=attrs,
        )
        stack.append(record)
        try:
            yield record
        finally:
            record.end = time.perf_counter()
            stack.pop()
            self.spans.append(record)

    def write(self, path: str, **header: Any) -> None:
        with open(path, "w") as fh:
            json.dump(
                {**header, "spans": [asdict(s) for s in self.spans]}, fh
            )


def self_times(spans: List[Span]) -> Dict[int, float]:
    """Per span id: duration minus the part its children cover.

    Children of one span run one after another in one thread, so the
    covered part is the sum of their durations.
    """
    covered: Dict[int, float] = defaultdict(float)
    for s in spans:
        if s.parent is not None:
            covered[s.parent] += s.duration
    return {s.span_id: s.duration - covered[s.span_id] for s in spans}


def durations_by_name(spans: List[Span]) -> Dict[str, List[float]]:
    """Span durations (children included) grouped by span name."""
    out: Dict[str, List[float]] = defaultdict(list)
    for s in spans:
        out[s.name].append(s.duration)
    return out


def self_time_by_name(spans: List[Span]) -> Dict[str, float]:
    """Total self time per span name: where the seconds were spent."""
    own = self_times(spans)
    out: Dict[str, float] = defaultdict(float)
    for s in spans:
        out[s.name] += own[s.span_id]
    return dict(out)
