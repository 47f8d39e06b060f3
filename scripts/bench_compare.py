#!/usr/bin/env python
"""Diff current BENCH_*.json results against a committed baseline.

The CI regression gate::

    PYTHONPATH=src python scripts/bench_compare.py \
        --baseline benchmarks/baselines --current benchmarks/results

Exit status 0 when every comparable metric is within the noise gate,
1 on any regression (including a baseline bench or gated metric missing
from the current results), 2 on schema/usage errors.

The records are written by ``benchmarks/_harness.py`` (schema there).
Before the diff, one trend row per metric of each current record is
printed: its p50, unit, p95, direction and whether it gates.

The comparison is noise-aware: a metric regresses only when it moves
in its bad direction by more than ``--rel-threshold`` *relative* AND
more than ``--min-abs`` *absolute*,
and only dimensionless ratio metrics (``compare: true`` in the record)
gate by default — raw wall times are machine-dependent and are skipped
unless ``--include-times`` is given or the machine fingerprints match.

``--validate-only`` just schema-checks every ``BENCH_*.json`` under
``--current`` (used by CI before uploading artifacts).
"""

from __future__ import annotations

import argparse
import math
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Iterable, List, Union

# The record schema and its loaders live with their writer.
_BENCHMARKS = Path(__file__).resolve().parent.parent / "benchmarks"
if str(_BENCHMARKS) not in sys.path:
    sys.path.insert(0, str(_BENCHMARKS))

from _harness import BenchResult, BenchSchemaError, load_bench_dir  # noqa: E402

#: Default noise gate: a metric must move by more than this relative
#: fraction in the bad direction to count as a regression...
DEFAULT_REL_THRESHOLD = 0.35
#: ...and by more than this absolute delta (so a 1.02x -> 1.00x ratio
#: wiggle near the floor never trips the gate).
DEFAULT_MIN_ABS = 0.08


@dataclass(frozen=True)
class MetricDelta:
    """One metric's baseline-vs-current comparison."""

    bench: str
    metric: str
    baseline: float
    current: float
    rel_change: float
    regression: bool
    note: str = ""

    def format(self) -> str:
        flag = "REGRESSION" if self.regression else "ok"
        return (
            f"{self.bench:24s} {self.metric:24s} "
            f"{self.baseline:10.3f} -> {self.current:10.3f}  "
            f"{self.rel_change:+7.1%}  {flag}"
            + (f"  ({self.note})" if self.note else "")
        )


def compare_results(
    baseline: BenchResult,
    current: BenchResult,
    *,
    rel_threshold: float = DEFAULT_REL_THRESHOLD,
    min_abs: float = DEFAULT_MIN_ABS,
    include_times: bool = False,
) -> List[MetricDelta]:
    """Diff two results of the same bench, noise-aware.

    A metric regresses when it moves in its bad direction by more than
    ``rel_threshold`` relative *and* more than ``min_abs`` absolute (a
    metric-level ``min_abs`` in the JSON overrides the global floor).
    Metrics with ``compare: false`` — machine-dependent raw times — are
    skipped unless ``include_times`` or the machine fingerprints match.
    A comparable baseline metric missing from the current run is itself
    a regression: silently dropping a gated metric must not pass.
    """
    same_machine = baseline.machine == current.machine
    deltas: List[MetricDelta] = []
    for metric, base_entry in sorted(baseline.metrics.items()):
        direction = base_entry.get("higher_is_better")
        comparable = base_entry.get("compare", False) and (
            direction is not None
        )
        if not comparable and not (
            (include_times or same_machine) and direction is not None
        ):
            continue
        cur_entry = current.metrics.get(metric)
        if cur_entry is None:
            deltas.append(
                MetricDelta(
                    bench=baseline.name,
                    metric=metric,
                    baseline=float(base_entry["p50"]),
                    current=math.nan,
                    rel_change=math.nan,
                    regression=comparable,
                    note="missing from current run",
                )
            )
            continue
        base = float(base_entry["p50"])
        cur = float(cur_entry["p50"])
        delta = cur - base
        rel = delta / abs(base) if base else math.inf * (delta or 0.0)
        bad = rel < -rel_threshold if direction else rel > rel_threshold
        floor = float(base_entry.get("min_abs", min_abs))
        regression = bool(bad and abs(delta) > floor)
        deltas.append(
            MetricDelta(
                bench=baseline.name,
                metric=metric,
                baseline=base,
                current=cur,
                rel_change=rel,
                regression=regression,
                note="" if comparable else "informational",
            )
        )
    return deltas


def compare_dirs(
    baseline_dir: Union[str, Path],
    current_dir: Union[str, Path],
    *,
    rel_threshold: float = DEFAULT_REL_THRESHOLD,
    min_abs: float = DEFAULT_MIN_ABS,
    include_times: bool = False,
) -> tuple[List[MetricDelta], List[str]]:
    """Compare every baseline bench against the current results.

    Returns ``(deltas, missing_benches)`` — a baseline bench with no
    current ``BENCH_*.json`` at all is reported in ``missing_benches``
    (the caller decides whether that fails the gate).
    """
    baselines = load_bench_dir(baseline_dir)
    currents = load_bench_dir(current_dir)
    deltas: List[MetricDelta] = []
    missing: List[str] = []
    for name, baseline in sorted(baselines.items()):
        current = currents.get(name)
        if current is None:
            missing.append(name)
            continue
        deltas.extend(
            compare_results(
                baseline,
                current,
                rel_threshold=rel_threshold,
                min_abs=min_abs,
                include_times=include_times,
            )
        )
    return deltas, missing


def format_comparison(
    deltas: Iterable[MetricDelta], missing: Iterable[str] = ()
) -> str:
    """Human-readable comparison table."""
    lines = [
        f"{'bench':24s} {'metric':24s} {'baseline':>10s}    "
        f"{'current':>10s}  {'change':>7s}"
    ]
    lines.extend(delta.format() for delta in deltas)
    for name in missing:
        lines.append(f"{name:24s} {'<whole bench>':24s} missing "
                     "from current results: REGRESSION")
    return "\n".join(lines)


def format_trend(results: Dict[str, BenchResult]) -> str:
    """One row per metric of each record: p50, unit, p95, direction,
    and whether it gates."""
    lines = []
    for name, result in sorted(results.items()):
        lines.append(f"{name}  (sha {result.git_sha[:12]})")
        for metric, entry in sorted(result.metrics.items()):
            direction = {True: "higher", False: "lower"}.get(
                entry.get("higher_is_better"), "info"
            )
            gate = "gated" if entry.get("compare") else "info"
            lines.append(
                f"  {metric:24s} p50 {entry['p50']:10.3f} "
                f"{entry.get('unit', ''):5s} "
                f"p95 {entry['p95']:10.3f}  [{direction}, {gate}]"
            )
        lines.append("")
    return "\n".join(lines)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--baseline",
        default="benchmarks/baselines",
        help="directory of committed baseline BENCH_*.json files",
    )
    parser.add_argument(
        "--current",
        default="benchmarks/results",
        help="directory of freshly produced BENCH_*.json files",
    )
    parser.add_argument(
        "--rel-threshold",
        type=float,
        default=DEFAULT_REL_THRESHOLD,
        help="relative bad-direction change that counts as a regression "
        f"(default {DEFAULT_REL_THRESHOLD})",
    )
    parser.add_argument(
        "--min-abs",
        type=float,
        default=DEFAULT_MIN_ABS,
        help="absolute-delta noise floor below which no change gates "
        f"(default {DEFAULT_MIN_ABS})",
    )
    parser.add_argument(
        "--include-times",
        action="store_true",
        help="also gate machine-dependent raw-time metrics "
        "(compare: false)",
    )
    parser.add_argument(
        "--validate-only",
        action="store_true",
        help="only schema-validate the --current directory, no diff",
    )
    args = parser.parse_args(argv)

    try:
        currents = load_bench_dir(args.current)
    except BenchSchemaError as exc:
        print(f"SCHEMA ERROR: {exc}", file=sys.stderr)
        return 2
    if args.validate_only:
        if not currents:
            print(
                f"no BENCH_*.json found under {args.current}",
                file=sys.stderr,
            )
            return 2
        for name, result in sorted(currents.items()):
            print(
                f"ok  BENCH_{name}.json  "
                f"({len(result.metrics)} metrics, sha "
                f"{result.git_sha[:12]})"
            )
        return 0

    if not Path(args.baseline).is_dir():
        print(
            f"baseline directory {args.baseline} does not exist",
            file=sys.stderr,
        )
        return 2
    try:
        deltas, missing = compare_dirs(
            args.baseline,
            args.current,
            rel_threshold=args.rel_threshold,
            min_abs=args.min_abs,
            include_times=args.include_times,
        )
    except BenchSchemaError as exc:
        print(f"SCHEMA ERROR: {exc}", file=sys.stderr)
        return 2

    print(format_trend(currents))
    print(format_comparison(deltas, missing))
    n_regressions = sum(d.regression for d in deltas) + len(missing)
    if n_regressions:
        print(
            f"\nFAIL: {n_regressions} regression(s) vs "
            f"{args.baseline}",
            file=sys.stderr,
        )
        return 1
    print(f"\nOK: {len(deltas)} metric(s) within the noise gate")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
