"""Observability: session tracing, metrics, and exporters.

The three pieces, all behind zero-overhead no-op defaults:

* **tracing** (:mod:`repro.obs.trace`) — nested spans covering every
  feedback round, subquery split, boundary expansion, localized k-NN,
  and merge decision of a QD session;
* **metrics** (:mod:`repro.obs.metrics`) — counters, gauges, and
  histograms (distance computations, page reads, subqueries per round,
  rounds to convergence, ...);
* **exporters** (:mod:`repro.obs.export`) — JSONL trace writer,
  collapsed-stack profile (each span path's exact self time, flamegraph
  input), Prometheus text dump, console summary — plus the
  :func:`repro.obs.summarize` trace analysis helper.

A run's time is recorded once, in its trace: the per-phase breakdown
(:func:`repro.obs.phase_durations`), the summary and the profile are
all read from finished spans, and nothing under ``repro.obs`` starts a
thread.

Quick start::

    from repro import obs

    tracer, registry = obs.Tracer(), obs.MetricsRegistry()
    with obs.use_tracer(tracer), obs.use_metrics(registry):
        result = engine.run_scripted(mark_fn, k=100)
    obs.write_jsonl_trace(tracer, "session.jsonl")
    print(obs.summarize("session.jsonl").format())
    print(obs.prometheus_text(registry))
"""

from repro._lazy import lazy_exports
from repro.obs.summarize import (
    SpanStats,
    TraceSummary,
    iter_spans,
    phase_durations,
    summarize,
)

__all__ = [
    "BUCKET_BOUNDS",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "NULL_METRICS",
    "NULL_TRACER",
    "NullMetrics",
    "NullTracer",
    "RESERVOIR_CAP",
    "Span",
    "SpanStats",
    "TraceSummary",
    "Tracer",
    "collapsed_from_trace",
    "console_summary",
    "get_metrics",
    "get_tracer",
    "instrument_key",
    "iter_spans",
    "load_jsonl_trace",
    "phase_durations",
    "prometheus_text",
    "set_metrics",
    "set_tracer",
    "summarize",
    "use_metrics",
    "use_tracer",
    "write_jsonl_trace",
]

__getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "repro.obs.export": (
            "collapsed_from_trace",
            "console_summary",
            "load_jsonl_trace",
            "prometheus_text",
            "write_jsonl_trace",
        ),
        "repro.obs.metrics": (
            "BUCKET_BOUNDS",
            "NULL_METRICS",
            "RESERVOIR_CAP",
            "Counter",
            "Gauge",
            "Histogram",
            "MetricsRegistry",
            "NullMetrics",
            "get_metrics",
            "instrument_key",
            "set_metrics",
            "use_metrics",
        ),
        "repro.obs.trace": (
            "NULL_TRACER",
            "NullTracer",
            "Span",
            "Tracer",
            "get_tracer",
            "set_tracer",
            "use_tracer",
        ),
    },
)
