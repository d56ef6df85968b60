"""repro.obs: unified metrics + tracing for every layer of the stack.

Two pillars, both built to cross the execution-backend seam:

- **Metrics** (:mod:`repro.obs.metrics`): a process-wide registry of
  counters, gauges, and log-bucketed histograms.  Snapshots are small
  picklable dataclasses with an associative ``merge()``, so per-worker
  metrics ride back from ``threads``/``pool`` ranks the
  same way timing ledgers already do.  Rendered as JSON (``to_dict``)
  or Prometheus text 0.0.4 (:mod:`repro.obs.prom`).
- **Tracing** (:mod:`repro.obs.tracing`): ``with span(name, **attrs):``
  regions with cross-process parenting (:mod:`repro.obs.propagate`),
  exported as Perfetto-loadable Chrome trace JSON and folded into
  per-stage duration breakdowns.  Off by default and free when off.

Quick start::

    from repro.obs import enable_tracing, span, drain_spans, to_chrome_trace
    enable_tracing()
    with span("my.stage", n=3):
        ...
    trace = to_chrome_trace(drain_spans())   # load at ui.perfetto.dev

CLI: ``repro trace input.fasta`` runs an alignment through the serving
gateway with tracing on and writes the trace + a stage table;
``repro loadtest --trace-out trace.json`` does the same for a whole
workload.  HTTP: ``GET /metrics?format=prom`` exposes gateway metrics
in Prometheus text format.
"""

from repro.obs.metrics import (
    Counter,
    CounterSnapshot,
    Gauge,
    GaugeSnapshot,
    Histogram,
    HistogramSnapshot,
    MetricsRegistry,
    MetricsSnapshot,
    percentile,
    registry,
)
from repro.obs.prom import (
    PROM_CONTENT_TYPE,
    escape_label_value,
    render_prometheus,
    sanitize_metric_name,
)
from repro.obs.propagate import run_traced
from repro.obs.tracing import (
    SpanRecord,
    TraceBuffer,
    TraceContext,
    collect,
    disable_tracing,
    drain_spans,
    enable_tracing,
    record_spans,
    span,
    stage_breakdown,
    to_chrome_trace,
    tracing_enabled,
    write_chrome_trace,
)

__all__ = [
    "Counter",
    "CounterSnapshot",
    "Gauge",
    "GaugeSnapshot",
    "Histogram",
    "HistogramSnapshot",
    "MetricsRegistry",
    "MetricsSnapshot",
    "PROM_CONTENT_TYPE",
    "SpanRecord",
    "TraceBuffer",
    "TraceContext",
    "collect",
    "disable_tracing",
    "drain_spans",
    "enable_tracing",
    "escape_label_value",
    "percentile",
    "record_spans",
    "registry",
    "render_prometheus",
    "run_traced",
    "sanitize_metric_name",
    "span",
    "stage_breakdown",
    "to_chrome_trace",
    "tracing_enabled",
    "write_chrome_trace",
]
