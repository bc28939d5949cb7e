"""Observability layer: in-kernel tracing, metrics and exporters.

``repro.obs`` is the zero-dependency instrumentation substrate the
execution stack (executor, parallel drivers, bound operators, solvers,
format caches) records into. Nothing is collected unless a tracer is
activated (``with tracing() as t: ...`` or ``set_active``); the
disabled-path cost is a single attribute check per instrumentation
point. Spans go to the tracer, every number (counters, gauges,
histograms) to its ``tracer.metrics`` registry. See DESIGN.md §4d for
the span taxonomy and counter definitions.
"""

from .metrics import (
    SLO,
    Counter,
    Gauge,
    LogHistogram,
    MetricsRegistry,
    SLOEvaluator,
    SLOReport,
    metrics_report,
    openmetrics_text,
)
from .export import (
    TRACE_SCHEMA,
    chrome_events,
    load_trace,
    summarize,
    text_report,
    trace_document,
    validate_trace,
    write_trace,
)
from .tracer import (
    NULL_SPAN,
    NULL_TRACER,
    SpanEvent,
    Tracer,
    active,
    percentile,
    reset_warning_counts,
    set_active,
    summarize_ns,
    tracing,
    warn,
    warning_counts,
)

__all__ = [
    "Tracer",
    "SpanEvent",
    "NULL_TRACER",
    "NULL_SPAN",
    "active",
    "set_active",
    "tracing",
    "warn",
    "warning_counts",
    "reset_warning_counts",
    "percentile",
    "summarize_ns",
    "LogHistogram",
    "Counter",
    "Gauge",
    "MetricsRegistry",
    "SLO",
    "SLOEvaluator",
    "SLOReport",
    "openmetrics_text",
    "metrics_report",
    "TRACE_SCHEMA",
    "summarize",
    "chrome_events",
    "trace_document",
    "write_trace",
    "load_trace",
    "validate_trace",
    "text_report",
]
