"""Trace analysis: aggregate a span forest into a readable summary.

``repro.obs.summarize(trace)`` accepts a :class:`~repro.obs.Tracer`, a
list of nested span dictionaries, or a path to a JSONL trace file, and
returns a :class:`TraceSummary` — counts, per-span-kind duration
statistics (mean and p95), disk-read attribution, and the session shape
(rounds, splits, subqueries) the paper's §5.2.2 efficiency story is
about.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, Iterator, List, Sequence, Union

import numpy as np

from repro.obs.trace import Span, Tracer

SpanDict = Dict[str, Any]
#: Every form a trace reader accepts: a tracer, finished spans, nested
#: span dicts, or the path of a JSONL trace file.
TraceSource = Union[Tracer, str, Path, Sequence[SpanDict], Sequence[Span]]


@dataclass(frozen=True)
class SpanStats:
    """Duration statistics for one span kind."""

    name: str
    count: int
    total_s: float
    mean_s: float
    p95_s: float


@dataclass
class TraceSummary:
    """Aggregated view of one trace."""

    n_sessions: int = 0
    n_rounds: int = 0
    n_splits: int = 0
    n_expansions: int = 0
    n_localized_knn: int = 0
    n_merge_decisions: int = 0
    disk_physical_reads: int = 0
    disk_logical_reads: int = 0
    rounds_per_session: List[int] = field(default_factory=list)
    subqueries_final: List[int] = field(default_factory=list)
    span_stats: Dict[str, SpanStats] = field(default_factory=dict)

    def format(self) -> str:
        """Multi-line human-readable report (means and p95 per kind)."""
        lines = [
            "Trace summary",
            f"  sessions: {self.n_sessions}   rounds: {self.n_rounds}   "
            f"splits: {self.n_splits}   expansions: {self.n_expansions}",
            f"  localized k-NN runs: {self.n_localized_knn}   "
            f"merge decisions: {self.n_merge_decisions}",
            f"  disk reads: {self.disk_physical_reads} physical / "
            f"{self.disk_logical_reads} logical",
        ]
        if self.rounds_per_session:
            lines.append(
                "  rounds/session: "
                f"mean={float(np.mean(self.rounds_per_session)):.1f} "
                f"max={max(self.rounds_per_session)}"
            )
        if self.subqueries_final:
            lines.append(
                "  final subqueries/session: "
                f"mean={float(np.mean(self.subqueries_final)):.1f} "
                f"max={max(self.subqueries_final)}"
            )
        if self.span_stats:
            lines.append(
                f"  {'span':18s} {'count':>6s} {'total_ms':>9s} "
                f"{'mean_ms':>8s} {'p95_ms':>8s}"
            )
            for name in sorted(self.span_stats):
                s = self.span_stats[name]
                lines.append(
                    f"  {name:18s} {s.count:6d} {s.total_s * 1e3:9.2f} "
                    f"{s.mean_s * 1e3:8.3f} {s.p95_s * 1e3:8.3f}"
                )
        return "\n".join(lines)


def as_span_dicts(trace: TraceSource) -> List[SpanDict]:
    """Coerce any supported trace form into nested span dictionaries.

    The one normaliser every trace reader goes through (summaries,
    phase durations, the JSONL writer, collapsed stacks).
    """
    if isinstance(trace, Tracer):
        return trace.to_dicts()
    if isinstance(trace, (str, Path)):
        from repro.obs.export import load_jsonl_trace

        return load_jsonl_trace(trace)
    out: List[SpanDict] = []
    for span in trace:
        out.append(span.to_dict() if isinstance(span, Span) else dict(span))
    return out


def iter_spans(roots: Sequence[SpanDict]) -> Iterator[SpanDict]:
    """Depth-first iteration over a nested span forest."""
    stack = list(reversed(list(roots)))
    while stack:
        span = stack.pop()
        yield span
        stack.extend(reversed(span.get("children", [])))


def phase_durations(trace: TraceSource) -> Dict[str, List[float]]:
    """Per-phase durations in the Figure 10/11 decomposition.

    Maps ``round`` spans to their ``phase`` attribute ("initial" /
    "iteration") and ``final_round`` spans to ``"final_knn"``.
    """
    out: Dict[str, List[float]] = {
        "initial": [], "iteration": [], "final_knn": [],
    }
    for span in iter_spans(as_span_dicts(trace)):
        if span.get("name") == "round":
            phase = span.get("attributes", {}).get("phase", "iteration")
            out.setdefault(str(phase), []).append(
                float(span.get("duration", 0.0))
            )
        elif span.get("name") == "final_round":
            out["final_knn"].append(float(span.get("duration", 0.0)))
    return out


def summarize(trace: TraceSource) -> TraceSummary:
    """Aggregate a trace (tracer, span dicts, or JSONL path)."""
    roots = as_span_dicts(trace)
    summary = TraceSummary()
    durations: Dict[str, List[float]] = {}
    for span in iter_spans(roots):
        name = str(span.get("name", ""))
        attrs = span.get("attributes", {})
        durations.setdefault(name, []).append(
            float(span.get("duration", 0.0))
        )
        if name == "session":
            summary.n_sessions += 1
            if "rounds_used" in attrs:
                summary.rounds_per_session.append(int(attrs["rounds_used"]))
            if "n_subqueries" in attrs:
                summary.subqueries_final.append(int(attrs["n_subqueries"]))
            summary.disk_physical_reads += int(
                attrs.get("disk_physical_reads", 0)
            )
            summary.disk_logical_reads += int(
                attrs.get("disk_logical_reads", 0)
            )
        elif name == "round":
            summary.n_rounds += 1
        elif name == "subquery_split":
            summary.n_splits += 1
        elif name == "boundary_expansion":
            summary.n_expansions += 1
        elif name == "localized_knn":
            summary.n_localized_knn += 1
        elif name == "merge_decision":
            summary.n_merge_decisions += 1
    for name, values in durations.items():
        arr = np.asarray(values, dtype=np.float64)
        summary.span_stats[name] = SpanStats(
            name=name,
            count=int(arr.shape[0]),
            total_s=float(arr.sum()),
            mean_s=float(arr.mean()),
            p95_s=float(np.percentile(arr, 95)),
        )
    return summary
