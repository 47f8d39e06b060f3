"""Exporters: JSONL trace files, Prometheus text, console summaries.

The JSONL format is one span per line, depth-first, with explicit
``span_id`` / ``parent_id`` links::

    {"span_id": 1, "parent_id": null, "name": "session", "start": ...,
     "duration": ..., "attributes": {"k": 100}}
    {"span_id": 2, "parent_id": 1, "name": "round", ...}

:func:`load_jsonl_trace` rebuilds the nested form (dicts with a
``children`` list), which is what :func:`repro.obs.summarize` consumes.
Truncated or corrupt lines — the tail of a crashed run's trace — are
skipped with a warning instead of raising, so a partial trace is still
summarizable.

:func:`collapsed_from_trace` renders the same trace as collapsed stacks
(``session;round;localized_knn 420``, flamegraph input): each span
path's exact self time in microseconds.
"""

from __future__ import annotations

import json
import math
import warnings
from pathlib import Path
from typing import Any, Dict, List, Tuple, Union

from repro.obs.metrics import MetricsRegistry
from repro.obs.summarize import (
    SpanDict,
    TraceSource,
    as_span_dicts,
    summarize,
)


def write_jsonl_trace(trace: TraceSource, path: Union[str, Path]) -> int:
    """Write a trace as JSONL; returns the number of lines written."""
    roots = as_span_dicts(trace)
    lines: List[str] = []
    next_id = 1

    def emit(span: SpanDict, parent_id: int | None) -> None:
        nonlocal next_id
        span_id = next_id
        next_id += 1
        record = {
            "span_id": span_id,
            "parent_id": parent_id,
            "name": span.get("name", ""),
            "start": span.get("start", 0.0),
            "duration": span.get("duration", 0.0),
            "attributes": span.get("attributes", {}),
        }
        lines.append(json.dumps(record, sort_keys=True, default=str))
        for child in span.get("children", []):
            emit(child, span_id)

    for root in roots:
        emit(root, None)
    Path(path).write_text("\n".join(lines) + ("\n" if lines else ""))
    return len(lines)


def load_jsonl_trace(path: Union[str, Path]) -> List[SpanDict]:
    """Read a JSONL trace back into nested span dictionaries.

    A line that fails to parse — typically the truncated final line of
    a crashed run — is skipped with a :class:`RuntimeWarning` naming the
    line number, so the rest of the trace still loads.
    """
    by_id: Dict[int, SpanDict] = {}
    roots: List[SpanDict] = []
    for lineno, line in enumerate(
        Path(path).read_text().splitlines(), start=1
    ):
        line = line.strip()
        if not line:
            continue
        try:
            record = json.loads(line)
            span_id = record["span_id"]
        except (json.JSONDecodeError, KeyError, TypeError) as exc:
            warnings.warn(
                f"{path}:{lineno}: skipping corrupt trace line "
                f"({exc.__class__.__name__}: {exc})",
                RuntimeWarning,
                stacklevel=2,
            )
            continue
        span: SpanDict = {
            "name": record.get("name", ""),
            "start": record.get("start", 0.0),
            "duration": record.get("duration", 0.0),
            "attributes": record.get("attributes", {}),
            "children": [],
        }
        by_id[span_id] = span
        parent_id = record.get("parent_id")
        if parent_id is None:
            roots.append(span)
        else:
            parent = by_id.get(parent_id)
            if parent is None:  # orphan line: keep it visible
                roots.append(span)
            else:
                parent["children"].append(span)
    return roots


def collapsed_from_trace(trace: TraceSource) -> str:
    """Collapsed stacks of a finished trace: one ``a;b;c weight`` line.

    Weights are per-path self time (duration minus children) in integer
    microseconds, so the output is flamegraph input and deterministic
    given a trace.  Paths with no self time are left out.
    """
    weights: Dict[Tuple[str, ...], int] = {}

    def walk(span: SpanDict, prefix: Tuple[str, ...]) -> None:
        path = prefix + (str(span.get("name", "")),)
        children = span.get("children", [])
        child_s = sum(float(c.get("duration", 0.0)) for c in children)
        self_s = max(0.0, float(span.get("duration", 0.0)) - child_s)
        self_us = int(round(self_s * 1e6))
        if self_us:
            weights[path] = weights.get(path, 0) + self_us
        for child in children:
            walk(child, path)

    for root in as_span_dicts(trace):
        walk(root, ())
    lines = [
        f"{';'.join(path)} {weight}"
        for path, weight in sorted(weights.items())
    ]
    return "\n".join(lines) + ("\n" if lines else "")


# ---------------------------------------------------------------------------
# Prometheus text exposition
# ---------------------------------------------------------------------------
def _sanitise(name: str) -> str:
    """Coerce a metric name into the Prometheus charset."""
    return "".join(
        c if c.isalnum() or c in "_:" else "_" for c in name
    )


def _escape_label_value(value: str) -> str:
    """Escape a label value per the text exposition rules."""
    return (
        value.replace("\\", r"\\").replace('"', r"\"").replace("\n", r"\n")
    )


def _render_labels(
    labels: Dict[str, str], extra: Tuple[Tuple[str, str], ...] = ()
) -> str:
    """``{k="v",...}`` (or empty) for a child's labels + extras."""
    items = [
        (_sanitise(k), _escape_label_value(str(v)))
        for k, v in sorted(labels.items())
    ]
    items.extend((k, str(v)) for k, v in extra)
    if not items:
        return ""
    return "{" + ",".join(f'{k}="{v}"' for k, v in items) + "}"


def _families(instruments: Dict[str, Any]) -> List[Tuple[str, List[Any]]]:
    """Group child instruments into (family name, children) pairs."""
    grouped: Dict[str, List[Any]] = {}
    for key in sorted(instruments):
        inst = instruments[key]
        grouped.setdefault(inst.name, []).append(inst)
    return sorted(grouped.items())


def _family_header(lines: List[str], name: str, kind: str, children) -> str:
    """Append ``# HELP``/``# TYPE`` for a family; returns safe name."""
    metric = _sanitise(name)
    help_ = next((c.help for c in children if c.help), "")
    if help_:
        lines.append(f"# HELP {metric} {help_}")
    lines.append(f"# TYPE {metric} {kind}")
    return metric


def _fmt_bound(bound: float) -> str:
    """``le`` label value for a bucket upper bound."""
    if math.isinf(bound):
        return "+Inf"
    return repr(float(bound))


def prometheus_text(registry: MetricsRegistry) -> str:
    """Render a registry in the Prometheus text exposition format.

    Counter and gauge families emit one sample per labeled child.
    Histograms are exported as native Prometheus histograms: cumulative
    ``_bucket`` series over the log-spaced bounds (only bounds where the
    count changes, plus ``+Inf``), ``_sum``, and ``_count``, each
    carrying the child's labels.
    """
    lines: List[str] = []
    for name, children in _families(registry.counters):
        metric = _family_header(lines, name, "counter", children)
        for child in children:
            lines.append(
                f"{metric}{_render_labels(child.labels)} "
                f"{_fmt(child.value)}"
            )
    for name, children in _families(registry.gauges):
        metric = _family_header(lines, name, "gauge", children)
        for child in children:
            lines.append(
                f"{metric}{_render_labels(child.labels)} "
                f"{_fmt(child.value)}"
            )
    for name, children in _families(registry.histograms):
        metric = _family_header(lines, name, "histogram", children)
        for child in children:
            for bound, cumulative in child.bucket_counts():
                le = (("le", _fmt_bound(bound)),)
                lines.append(
                    f"{metric}_bucket"
                    f"{_render_labels(child.labels, extra=le)} "
                    f"{cumulative}"
                )
            labels = _render_labels(child.labels)
            lines.append(f"{metric}_sum{labels} {_fmt(child.sum)}")
            lines.append(f"{metric}_count{labels} {child.count}")
    return "\n".join(lines) + ("\n" if lines else "")


def _fmt(value: float) -> str:
    """Prometheus sample value: integers bare, floats with precision."""
    if float(value).is_integer():
        return str(int(value))
    return repr(float(value))


# ---------------------------------------------------------------------------
# Console summary
# ---------------------------------------------------------------------------
def console_summary(
    trace: TraceSource | None = None,
    registry: MetricsRegistry | None = None,
) -> str:
    """Human-readable block: span timing table + headline metrics.

    Reports p95 alongside the mean for every span kind, as the Figure
    10/11 methodology requires.
    """
    blocks: List[str] = []
    if trace is not None:
        blocks.append(summarize(trace).format())
    if registry is not None and registry.enabled:
        lines = ["Metrics"]
        for key in sorted(registry.counters):
            lines.append(
                f"  {key:48s} {_fmt(registry.counters[key].value)}"
            )
        for key in sorted(registry.gauges):
            lines.append(
                f"  {key:48s} {_fmt(registry.gauges[key].value)}"
            )
        for key in sorted(registry.histograms):
            hist = registry.histograms[key]
            lines.append(
                f"  {key:48s} count={hist.count} mean={hist.mean():.2f}"
                f" p95={hist.percentile(95):.2f}"
            )
        if len(lines) > 1:
            blocks.append("\n".join(lines))
    return "\n\n".join(blocks)
