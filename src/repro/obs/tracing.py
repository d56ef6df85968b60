"""Spans: where did this request's time go?

A :func:`span` is a context manager that records one timed region --
name, wall-clock start, duration, free-form attributes, and its parent
span -- into the current thread's trace sink.  The API is built around
three constraints:

1. **Disabled must cost nothing.**  When tracing is off (the default),
   ``span(...)`` is one global-flag check returning a shared no-op
   singleton -- no allocation, no clock read.  The hot paths this
   instruments (DP cells, distance tiles) cannot afford more.
2. **Spans cross process boundaries.**  The ``pool`` backend
   runs ranks in other address spaces.  A small picklable
   :class:`TraceContext` carries (trace id, parent span id) to the
   worker; the worker's spans come back as picklable
   :class:`SpanRecord` lists and are stitched under the dispatching
   span.  Start timestamps use ``time.time()`` (comparable across
   processes); durations use a ``perf_counter`` delta (monotonic).
3. **Per-job views without losing the global one.**  :func:`collect`
   installs a fresh per-job buffer for the current thread that *tees*
   into whatever sink was active -- so a service job can attach its own
   stage breakdown to the result while the process-wide buffer (capped,
   drained by ``repro trace`` / ``loadtest --trace-out``) still sees
   everything.

Exports: :func:`to_chrome_trace` renders records as Chrome trace-event
JSON (load at ``ui.perfetto.dev`` or ``chrome://tracing``);
:func:`stage_breakdown` folds them into a nested per-stage duration
tree keyed by span name.
"""

from __future__ import annotations

import itertools
import json
import os
import threading
import time
from collections import deque
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, List, Optional, Sequence

__all__ = [
    "SpanRecord",
    "TraceBuffer",
    "TraceContext",
    "collect",
    "disable_tracing",
    "drain_spans",
    "enable_tracing",
    "global_records",
    "install_context",
    "propagation_context",
    "record_spans",
    "restore_context",
    "span",
    "stage_breakdown",
    "to_chrome_trace",
    "tracing_enabled",
]

#: Cap on the process-wide buffer: old spans fall off rather than
#: growing memory without bound under a long-lived server.
GLOBAL_BUFFER_CAP = 100_000

_enabled = False
_id_counter = itertools.count(1)
_tls = threading.local()


@dataclass(frozen=True)
class SpanRecord:
    """One finished span; picklable, merge-free (just concatenate lists)."""

    name: str
    span_id: str
    parent_id: Optional[str]
    trace_id: str
    pid: int
    tid: int
    t0: float  # wall-clock start (time.time(); cross-process comparable)
    dur: float  # seconds (perf_counter delta; monotonic)
    attrs: Dict[str, Any] = field(default_factory=dict)


@dataclass(frozen=True)
class TraceContext:
    """What a worker needs to parent its spans under the dispatch site."""

    trace_id: str
    parent_id: Optional[str]


class TraceBuffer:
    """An append-only span sink, optionally teeing into another sink."""

    def __init__(self, tee: Optional["TraceBuffer"] = None, maxlen: Optional[int] = None):
        self._records: deque = deque(maxlen=maxlen)
        self._tee = tee
        self._lock = threading.Lock()

    def add(self, record: SpanRecord) -> None:
        with self._lock:
            self._records.append(record)
        if self._tee is not None:
            self._tee.add(record)

    def extend(self, records: Iterable[SpanRecord]) -> None:
        for r in records:
            self.add(r)

    def __len__(self) -> int:
        return len(self._records)

    def records(self) -> List[SpanRecord]:
        with self._lock:
            return list(self._records)

    def drain(self) -> List[SpanRecord]:
        with self._lock:
            out = list(self._records)
            self._records.clear()
        return out


#: Process-wide default sink (bounded; spans land here unless a
#: per-thread sink is installed via :func:`collect` / worker install).
_global_buffer = TraceBuffer(maxlen=GLOBAL_BUFFER_CAP)


def enable_tracing() -> None:
    """Turn span recording on process-wide."""
    global _enabled
    _enabled = True


def disable_tracing() -> None:
    """Turn span recording off (``span()`` returns the no-op again)."""
    global _enabled
    _enabled = False


def tracing_enabled() -> bool:
    return _enabled


def _sink() -> TraceBuffer:
    # Explicit None test: an empty TraceBuffer is falsy (len 0), so
    # ``sink or _global_buffer`` would skip a freshly installed buffer.
    sink = getattr(_tls, "sink", None)
    return _global_buffer if sink is None else sink


def _stack() -> List[str]:
    stack = getattr(_tls, "stack", None)
    if stack is None:
        stack = _tls.stack = []
    return stack


def _trace_id() -> str:
    tid = getattr(_tls, "trace_id", None)
    if tid is None:
        tid = _tls.trace_id = f"{os.getpid():x}-{next(_id_counter):x}"
    return tid


class _NoopSpan:
    """The disabled-path singleton: every operation is a no-op."""

    __slots__ = ()

    def __enter__(self) -> "_NoopSpan":
        return self

    def __exit__(self, *exc: Any) -> None:
        return None

    def set(self, **attrs: Any) -> None:
        return None


_NOOP = _NoopSpan()


class _Span:
    __slots__ = ("name", "attrs", "span_id", "parent_id", "_t0", "_perf0")

    def __init__(self, name: str, attrs: Dict[str, Any]):
        self.name = name
        self.attrs = attrs
        self.span_id = f"{os.getpid():x}-{next(_id_counter):x}"
        self.parent_id: Optional[str] = None
        self._t0 = 0.0
        self._perf0 = 0.0

    def set(self, **attrs: Any) -> None:
        self.attrs.update(attrs)

    def __enter__(self) -> "_Span":
        stack = _stack()
        self.parent_id = stack[-1] if stack else getattr(_tls, "base_parent", None)
        stack.append(self.span_id)
        self._t0 = time.time()
        self._perf0 = time.perf_counter()
        return self

    def __exit__(self, exc_type: Any, exc: Any, tb: Any) -> None:
        dur = time.perf_counter() - self._perf0
        stack = _stack()
        if stack and stack[-1] == self.span_id:
            stack.pop()
        if exc_type is not None:
            self.attrs["error"] = exc_type.__name__
        _sink().add(
            SpanRecord(
                name=self.name,
                span_id=self.span_id,
                parent_id=self.parent_id,
                trace_id=_trace_id(),
                pid=os.getpid(),
                tid=threading.get_ident(),
                t0=self._t0,
                dur=dur,
                attrs=self.attrs,
            )
        )


def span(name: str, **attrs: Any):
    """A timed region.  One flag check and a shared no-op when disabled."""
    if not _enabled:
        return _NOOP
    return _Span(name, attrs)


# ---------------------------------------------------------------------------
# Per-job collection and cross-process propagation.


@contextmanager
def collect(tee: bool = True):
    """Install a fresh per-thread buffer; yields it; restores on exit.

    With ``tee=True`` (the default) every span still reaches the sink
    that was active before -- the per-job view is a copy, not a theft.
    """
    prev = getattr(_tls, "sink", None)
    tee_target = (prev if prev is not None else _global_buffer) if tee else None
    buf = TraceBuffer(tee=tee_target)
    _tls.sink = buf
    try:
        yield buf
    finally:
        _tls.sink = prev


def drain_spans() -> List[SpanRecord]:
    """Drain the process-wide buffer."""
    return _global_buffer.drain()


def global_records() -> List[SpanRecord]:
    """Copy the process-wide buffer without draining it.

    For observers (the loadtest report) that want a view of what other
    threads recorded while leaving the spans for whoever exports the
    full trace.
    """
    return _global_buffer.records()


def record_spans(records: Iterable[SpanRecord]) -> None:
    """Feed foreign spans (e.g. shipped back from a worker) into the
    current thread's sink, so they tee exactly like local spans."""
    _sink().extend(records)


def propagation_context() -> TraceContext:
    """Capture (trace id, innermost open span) for shipping to a worker."""
    stack = getattr(_tls, "stack", None)
    parent = stack[-1] if stack else getattr(_tls, "base_parent", None)
    return TraceContext(trace_id=_trace_id(), parent_id=parent)


def install_context(ctx: TraceContext):
    """Adopt a parent's trace context in a worker thread/process.

    Installs a fresh NON-teeing buffer as this thread's sink (the
    worker's spans are shipped back explicitly, and must not also land
    in this process's global buffer -- under the ``threads`` backend
    that would double-record them), force-enables tracing (a context is
    only ever shipped when the parent had tracing on; spawn-start
    workers don't inherit the flag), and returns an opaque token for
    :func:`restore_context`.
    """
    global _enabled
    token = (
        getattr(_tls, "sink", None),
        getattr(_tls, "stack", None),
        getattr(_tls, "trace_id", None),
        getattr(_tls, "base_parent", None),
        _enabled,
    )
    buf = TraceBuffer()
    _tls.sink = buf
    _tls.stack = []
    _tls.trace_id = ctx.trace_id
    _tls.base_parent = ctx.parent_id
    _enabled = True
    return buf, token


def restore_context(token) -> None:
    """Undo :func:`install_context` (pass its returned token)."""
    global _enabled
    sink, stack, trace_id, base_parent, enabled = token
    _tls.sink = sink
    _tls.stack = stack if stack is not None else []
    _tls.trace_id = trace_id
    _tls.base_parent = base_parent
    _enabled = enabled


# ---------------------------------------------------------------------------
# Exports.


def to_chrome_trace(records: Sequence[SpanRecord]) -> Dict[str, Any]:
    """Chrome trace-event JSON (complete "X" events; Perfetto-loadable).

    Timestamps are microseconds of wall-clock ``time.time()``, so spans
    recorded in different processes line up on one timeline.
    """
    events = []
    for r in records:
        events.append(
            {
                "name": r.name,
                "ph": "X",
                "ts": r.t0 * 1e6,
                "dur": r.dur * 1e6,
                "pid": r.pid,
                "tid": r.tid,
                "args": {
                    "span_id": r.span_id,
                    "parent_id": r.parent_id,
                    "trace_id": r.trace_id,
                    **r.attrs,
                },
            }
        )
    return {"traceEvents": events, "displayTimeUnit": "ms"}


def write_chrome_trace(path: str, records: Sequence[SpanRecord]) -> None:
    """Serialise :func:`to_chrome_trace` to ``path``."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(to_chrome_trace(records), fh, indent=1)


def stage_breakdown(records: Sequence[SpanRecord]) -> List[Dict[str, Any]]:
    """Fold span records into a nested per-stage duration tree.

    Children are grouped under their parent *by span name* and
    aggregated (count, total seconds); roots are spans whose parent is
    not among ``records``.  Siblings sort by total duration descending,
    so the first child of any stage is where the time went.
    """
    by_parent: Dict[Optional[str], List[SpanRecord]] = {}
    ids = {r.span_id for r in records}
    for r in records:
        key = r.parent_id if r.parent_id in ids else None
        by_parent.setdefault(key, []).append(r)

    def fold(children: List[SpanRecord]) -> List[Dict[str, Any]]:
        groups: Dict[str, Dict[str, Any]] = {}
        for r in sorted(children, key=lambda r: r.t0):
            node = groups.get(r.name)
            if node is None:
                node = groups[r.name] = {
                    "stage": r.name,
                    "count": 0,
                    "total_s": 0.0,
                    "_members": [],
                }
            node["count"] += 1
            node["total_s"] += r.dur
            node["_members"].append(r.span_id)
        out = []
        for node in groups.values():
            sub: List[SpanRecord] = []
            for sid in node.pop("_members"):
                sub.extend(by_parent.get(sid, ()))
            node["total_s"] = round(node["total_s"], 6)
            kids = fold(sub)
            if kids:
                node["children"] = kids
            out.append(node)
        out.sort(key=lambda n: -n["total_s"])
        return out

    return fold(by_parent.get(None, []))
