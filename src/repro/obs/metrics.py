"""Mergeable metrics: counters, gauges, log-bucketed histograms.

The serving stack needs telemetry that survives two hostile conditions:
long uptimes (a latency deque that must be sorted per snapshot gets more
expensive the longer the server lives) and multi-process execution (the
``pool`` backend does its work in other address spaces).
Both are solved the same way the parcomp layer already solves timing --
small picklable snapshots with an **associative, commutative**
``merge()``, so per-rank/per-worker metrics ride the existing
ledger-merge idiom back to the parent and any two snapshots of the same
metric can be combined in any order and grouping.

- :class:`Counter` -- a monotone count; merge is addition.
- :class:`Gauge` -- a last-write-wins value; merge keeps the
  ``(stamp, value)``-max observation, which is associative, commutative
  and idempotent (unlike "take the right-hand value").
- :class:`Histogram` -- sparse log-bucketed distribution: bucket ``i``
  holds values in ``[base**i, base**(i+1))``, so a *bounded* number of
  integer counts summarises an unbounded stream with a known relative
  error per quantile.  Merge is bucket-wise addition -- the total bucket
  count is conserved exactly.

:class:`MetricsRegistry` names and owns live metrics;
:func:`registry` is the process-wide default.  :func:`percentile` is the
repo's one exact nearest-rank percentile (the gateway and the loadtest
client both delegate here); histogram quantiles are the bounded-memory
approximation of the same rank definition.
"""

from __future__ import annotations

import math
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Dict, Optional, Sequence as TSequence, Union

__all__ = [
    "Counter",
    "CounterSnapshot",
    "Gauge",
    "GaugeSnapshot",
    "Histogram",
    "HistogramSnapshot",
    "MetricsRegistry",
    "MetricsSnapshot",
    "percentile",
    "registry",
]

#: Default histogram bucket growth factor: ~7% relative half-width per
#: bucket, ~170 live buckets to span nanoseconds..hours of latency.
DEFAULT_BASE = 1.15


def percentile(sorted_values: TSequence[float], q: float) -> Optional[float]:
    """Nearest-rank percentile of an ascending sequence (None if empty).

    The codebase's single exact percentile implementation:
    ``repro.serve.gateway.percentile`` and the loadtest client both
    delegate here, and :meth:`HistogramSnapshot.quantile` approximates
    the same nearest-rank definition from buckets.
    """
    if not sorted_values:
        return None
    if not 0.0 <= q <= 1.0:
        raise ValueError("q must be in [0, 1]")
    rank = max(1, math.ceil(q * len(sorted_values)))
    return sorted_values[min(len(sorted_values) - 1, rank - 1)]


# ---------------------------------------------------------------------------
# Snapshots: small picklable dataclasses with associative merge().


@dataclass(frozen=True)
class CounterSnapshot:
    """A counter's value; ``merge`` is addition."""

    value: int = 0

    def merge(self, other: "CounterSnapshot") -> "CounterSnapshot":
        return CounterSnapshot(self.value + other.value)

    def diff(self, earlier: "CounterSnapshot") -> "CounterSnapshot":
        return CounterSnapshot(max(0, self.value - earlier.value))

    def to_dict(self) -> Dict[str, Any]:
        return {"type": "counter", "value": self.value}


@dataclass(frozen=True)
class GaugeSnapshot:
    """A gauge observation; ``merge`` keeps the ``(stamp, value)`` max.

    Picking the lexicographic maximum (newest stamp, ties broken by
    value) is associative, commutative and idempotent, so merging the
    same snapshots in any order or grouping yields the same winner.
    """

    value: float = 0.0
    stamp: float = 0.0

    def merge(self, other: "GaugeSnapshot") -> "GaugeSnapshot":
        return self if (self.stamp, self.value) >= (other.stamp, other.value) else other

    def diff(self, earlier: "GaugeSnapshot") -> "GaugeSnapshot":
        return self  # gauges are point-in-time; the later one stands

    def to_dict(self) -> Dict[str, Any]:
        return {"type": "gauge", "value": self.value, "stamp": self.stamp}


@dataclass(frozen=True)
class HistogramSnapshot:
    """A log-bucketed distribution; ``merge`` adds buckets pointwise.

    ``buckets[i]`` counts observations in ``[base**i, base**(i+1))``;
    non-positive observations land in ``underflow``.  ``count`` /
    ``total`` / ``vmin`` / ``vmax`` summarise the exact stream, so the
    mean is exact and only the quantiles are bucket-approximate (within
    one bucket's relative width).
    """

    base: float = DEFAULT_BASE
    buckets: Dict[int, int] = field(default_factory=dict)
    underflow: int = 0
    count: int = 0
    total: float = 0.0
    vmin: Optional[float] = None
    vmax: Optional[float] = None

    def merge(self, other: "HistogramSnapshot") -> "HistogramSnapshot":
        if self.base != other.base:
            raise ValueError(
                f"cannot merge histograms with bases {self.base} != {other.base}"
            )
        buckets = dict(self.buckets)
        for idx, n in other.buckets.items():
            buckets[idx] = buckets.get(idx, 0) + n
        mins = [v for v in (self.vmin, other.vmin) if v is not None]
        maxs = [v for v in (self.vmax, other.vmax) if v is not None]
        return HistogramSnapshot(
            base=self.base,
            buckets=buckets,
            underflow=self.underflow + other.underflow,
            count=self.count + other.count,
            total=self.total + other.total,
            vmin=min(mins) if mins else None,
            vmax=max(maxs) if maxs else None,
        )

    def diff(self, earlier: "HistogramSnapshot") -> "HistogramSnapshot":
        """Observations since ``earlier`` (bucket-wise subtraction).

        ``vmin``/``vmax`` cannot be un-merged; the later bounds are kept
        (a conservative superset of the delta's true bounds).
        """
        buckets = {
            idx: n - earlier.buckets.get(idx, 0)
            for idx, n in self.buckets.items()
            if n - earlier.buckets.get(idx, 0) > 0
        }
        return HistogramSnapshot(
            base=self.base,
            buckets=buckets,
            underflow=max(0, self.underflow - earlier.underflow),
            count=max(0, self.count - earlier.count),
            total=self.total - earlier.total,
            vmin=self.vmin,
            vmax=self.vmax,
        )

    @property
    def mean(self) -> Optional[float]:
        return self.total / self.count if self.count else None

    def quantile(self, q: float) -> Optional[float]:
        """Nearest-rank quantile from the buckets (None when empty).

        The returned value is the geometric midpoint of the bucket the
        rank falls in, clamped to the exact observed ``[vmin, vmax]`` --
        so ``quantile(1.0)`` is exactly ``vmax`` and the relative error
        of interior quantiles is bounded by the bucket width.
        """
        if self.count == 0:
            return None
        if not 0.0 <= q <= 1.0:
            raise ValueError("q must be in [0, 1]")
        rank = max(1, math.ceil(q * self.count))
        seen = self.underflow
        if rank <= seen:
            return self.vmin if self.vmin is not None else 0.0
        for idx in sorted(self.buckets):
            seen += self.buckets[idx]
            if rank <= seen:
                mid = self.base ** (idx + 0.5)
                if self.vmin is not None:
                    mid = max(mid, self.vmin)
                if self.vmax is not None:
                    mid = min(mid, self.vmax)
                return mid
        return self.vmax

    def to_dict(self) -> Dict[str, Any]:
        return {
            "type": "histogram",
            "base": self.base,
            "buckets": {str(k): v for k, v in sorted(self.buckets.items())},
            "underflow": self.underflow,
            "count": self.count,
            "total": self.total,
            "min": self.vmin,
            "max": self.vmax,
        }


MetricSnapshot = Union[CounterSnapshot, GaugeSnapshot, HistogramSnapshot]


@dataclass(frozen=True)
class MetricsSnapshot:
    """One registry's metrics at a point in time; merge is per-name."""

    metrics: Dict[str, MetricSnapshot] = field(default_factory=dict)

    def merge(self, other: "MetricsSnapshot") -> "MetricsSnapshot":
        merged = dict(self.metrics)
        for name, snap in other.metrics.items():
            mine = merged.get(name)
            if mine is None:
                merged[name] = snap
            elif type(mine) is not type(snap):
                raise ValueError(
                    f"metric {name!r} has conflicting types "
                    f"{type(mine).__name__} / {type(snap).__name__}"
                )
            else:
                merged[name] = mine.merge(snap)
        return MetricsSnapshot(merged)

    def diff(self, earlier: "MetricsSnapshot") -> "MetricsSnapshot":
        """Activity since ``earlier`` (names absent earlier pass through)."""
        out: Dict[str, MetricSnapshot] = {}
        for name, snap in self.metrics.items():
            prev = earlier.metrics.get(name)
            out[name] = snap if prev is None else snap.diff(prev)
        return MetricsSnapshot(out)

    def to_dict(self) -> Dict[str, Any]:
        return {name: snap.to_dict() for name, snap in sorted(self.metrics.items())}


# ---------------------------------------------------------------------------
# Live metrics (thread-safe; snapshots are the serialisation surface).


class Counter:
    """A thread-safe monotone counter."""

    __slots__ = ("_lock", "_value")

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._value = 0

    def inc(self, n: int = 1) -> None:
        with self._lock:
            self._value += n

    @property
    def value(self) -> int:
        return self._value

    def snapshot(self) -> CounterSnapshot:
        return CounterSnapshot(self._value)

    def absorb(self, snap: CounterSnapshot) -> None:
        self.inc(snap.value)


class Gauge:
    """A thread-safe last-write-wins value."""

    __slots__ = ("_lock", "_value", "_stamp")

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._value = 0.0
        self._stamp = 0.0

    def set(self, value: float) -> None:
        with self._lock:
            self._value = float(value)
            self._stamp = time.time()

    @property
    def value(self) -> float:
        return self._value

    def snapshot(self) -> GaugeSnapshot:
        with self._lock:
            return GaugeSnapshot(self._value, self._stamp)

    def absorb(self, snap: GaugeSnapshot) -> None:
        with self._lock:
            if (snap.stamp, snap.value) > (self._stamp, self._value):
                self._value, self._stamp = snap.value, snap.stamp


class Histogram:
    """A thread-safe sparse log-bucketed histogram.

    ``observe()`` is O(1): one ``log`` and one dict increment -- the
    bounded-cost replacement for "append to a deque and sort the whole
    window at every metrics snapshot".
    """

    __slots__ = ("base", "_log_base", "_lock", "_buckets", "_underflow",
                 "_count", "_total", "_vmin", "_vmax")

    def __init__(self, base: float = DEFAULT_BASE) -> None:
        if not base > 1.0:
            raise ValueError("histogram base must be > 1")
        self.base = float(base)
        self._log_base = math.log(self.base)
        self._lock = threading.Lock()
        self._buckets: Dict[int, int] = {}
        self._underflow = 0
        self._count = 0
        self._total = 0.0
        self._vmin: Optional[float] = None
        self._vmax: Optional[float] = None

    def observe(self, value: float) -> None:
        value = float(value)
        idx = None if value <= 0.0 else int(math.floor(math.log(value) / self._log_base))
        with self._lock:
            if idx is None:
                self._underflow += 1
            else:
                self._buckets[idx] = self._buckets.get(idx, 0) + 1
            self._count += 1
            self._total += value
            if self._vmin is None or value < self._vmin:
                self._vmin = value
            if self._vmax is None or value > self._vmax:
                self._vmax = value

    @property
    def count(self) -> int:
        return self._count

    def snapshot(self) -> HistogramSnapshot:
        with self._lock:
            return HistogramSnapshot(
                base=self.base,
                buckets=dict(self._buckets),
                underflow=self._underflow,
                count=self._count,
                total=self._total,
                vmin=self._vmin,
                vmax=self._vmax,
            )

    def absorb(self, snap: HistogramSnapshot) -> None:
        if snap.base != self.base:
            raise ValueError(
                f"cannot absorb a base-{snap.base} snapshot into a "
                f"base-{self.base} histogram"
            )
        with self._lock:
            for idx, n in snap.buckets.items():
                self._buckets[idx] = self._buckets.get(idx, 0) + n
            self._underflow += snap.underflow
            self._count += snap.count
            self._total += snap.total
            if snap.vmin is not None and (self._vmin is None or snap.vmin < self._vmin):
                self._vmin = snap.vmin
            if snap.vmax is not None and (self._vmax is None or snap.vmax > self._vmax):
                self._vmax = snap.vmax


_KINDS = {"counter": Counter, "gauge": Gauge, "histogram": Histogram}
_SNAP_KINDS = {
    CounterSnapshot: Counter,
    GaugeSnapshot: Gauge,
    HistogramSnapshot: Histogram,
}


class MetricsRegistry:
    """Named live metrics with one picklable, mergeable snapshot.

    Accessors are create-or-fetch: ``registry.counter("dp.calls")``
    returns the same :class:`Counter` on every call, and asking for an
    existing name with a different kind raises.  :meth:`absorb` merges a
    foreign :class:`MetricsSnapshot` (e.g. shipped back from a pool
    worker) into the live metrics.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._metrics: Dict[str, Any] = {}

    def _get(self, name: str, cls, **kwargs):
        with self._lock:
            metric = self._metrics.get(name)
            if metric is None:
                metric = self._metrics[name] = cls(**kwargs)
            elif not isinstance(metric, cls):
                raise ValueError(
                    f"metric {name!r} already registered as "
                    f"{type(metric).__name__}, not {cls.__name__}"
                )
            return metric

    def counter(self, name: str) -> Counter:
        return self._get(name, Counter)

    def gauge(self, name: str) -> Gauge:
        return self._get(name, Gauge)

    def histogram(self, name: str, base: float = DEFAULT_BASE) -> Histogram:
        return self._get(name, Histogram, base=base)

    def names(self) -> list:
        with self._lock:
            return sorted(self._metrics)

    def snapshot(self) -> MetricsSnapshot:
        with self._lock:
            metrics = dict(self._metrics)
        return MetricsSnapshot(
            {name: m.snapshot() for name, m in metrics.items()}
        )

    def absorb(self, snapshot: MetricsSnapshot) -> None:
        for name, snap in snapshot.metrics.items():
            cls = _SNAP_KINDS[type(snap)]
            kwargs = {"base": snap.base} if cls is Histogram else {}
            self._get(name, cls, **kwargs).absorb(snap)


#: The process-wide default registry (what the built-in instrumentation
#: writes to and what worker deltas merge back into).
_default_registry = MetricsRegistry()


def registry() -> MetricsRegistry:
    """The process-wide default :class:`MetricsRegistry`."""
    return _default_registry
