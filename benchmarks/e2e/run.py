#!/usr/bin/env python3
"""e2e_serving — TCP dialogue benchmark with a per-layer traced run.

Driver form (one workload, one JSON object on the last line)::

    python3 benchmarks/e2e/run.py --workload scan_wide --seed 3 \\
        --seconds 15 --trace 0      # end-to-end metrics
    python3 benchmarks/e2e/run.py --workload scan_wide --seed 3 \\
        --seconds 15 --trace 1      # per-layer metrics (traced run)

Without ``--workload`` it runs all four workloads, end to end and then
traced, and prints every metric by name and unit; ``--aa N`` makes two
interleaved sets of N end-to-end runs and compares their medians
against the bounds in ``BENCHMARK.json``; ``--smoke`` is a seconds-long
self-check whose numbers mean nothing.  See README.md.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import shutil
import signal
import statistics
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, Iterator, List, Optional, Sequence

HERE = Path(__file__).resolve().parent
REPO = HERE.parents[1]
RESULTS = HERE / "results"

if not (REPO / "src" / "repro").is_dir():
    sys.exit(f"e2e benchmark: no program to measure at {REPO / 'src'}")
sys.path.insert(0, str(REPO / "src"))

#: The BLAS under numpy is pinned to one thread in this process and in
#: the server child (which inherits the environment): the benchmark
#: runs on one CPU.  Set before numpy is first imported.
THREAD_ENV = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
}
os.environ.update(THREAD_ENV)

from loadgen import (  # noqa: E402
    BenchmarkError,
    LoadGenerator,
    ServerProcess,
    pin_to_one_cpu,
    summarize,
)
from stats import MIN_CALM, calm_epochs, percentile  # noqa: E402
from verify import (  # noqa: E402
    verify_against_reference,
    verify_mixed_invariants,
)
from workloads import (  # noqa: E402
    DB_SEED,
    N_CATEGORIES,
    N_IMAGES,
    WORKLOADS,
    Workload,
    build_plan,
)

SPEC = json.loads((REPO / "BENCHMARK.json").read_text())
END_TO_END = {m["name"]: m for m in SPEC["end_to_end"]}
PER_LAYER = {m["name"]: m for m in SPEC["per_layer"]}
DEFAULT_SEED = 2006
#: Every end-to-end metric a run measures.  ``BENCHMARK.json`` gates
#: the ones that held their bound on all four workloads; the others
#: are printed as information only (README, "Gated and demoted
#: metrics").
MEASURED = {
    "setup_s": "s",
    "setup_wall_s": "s",
    "dialogues_per_s": "1/s",
    "server_cpu_ms_per_dialogue": "ms",
    "dialogue_p50_ms": "ms",
    "feedback_p50_ms": "ms",
    "feedback_p90_ms": "ms",
    "finalize_p50_ms": "ms",
    "peak_rss_mb": "MB",
}
#: A run that a loaded host stretches past this many times ``--seconds``
#: of measuring stops after the epoch it is in (the driver allows a run
#: 180 s).
OVERRUN = 3.0


@dataclass(frozen=True)
class Scale:
    """How big a run is; everything but ``FULL`` is a self-check."""

    label: str
    n_images: int
    cold_starts: int
    trace_warmup: int
    #: Overrides of the workload's own sizes (None: keep them).
    epochs: Optional[int] = None
    epoch_dialogues: Optional[int] = None
    warmup_dialogues: Optional[int] = None
    trace_dialogues: Optional[int] = None


FULL = Scale("FULL", N_IMAGES, cold_starts=3, trace_warmup=10)
SMOKE = Scale(
    "SMOKE", 2_000, cold_starts=1, trace_warmup=2,
    epochs=1, epoch_dialogues=20, warmup_dialogues=4, trace_dialogues=8,
)


@contextlib.contextmanager
def scratch_dir() -> Iterator[Path]:
    """A temp directory inside the checkout, removed on every exit."""
    RESULTS.mkdir(exist_ok=True)
    path = Path(tempfile.mkdtemp(prefix="run-", dir=RESULTS))
    try:
        yield path
    finally:
        shutil.rmtree(path, ignore_errors=True)


def make_database(n_images: int) -> Any:
    from repro.datasets.build import build_synthetic_database

    return build_synthetic_database(
        n_images, n_categories=N_CATEGORIES, seed=DB_SEED
    )


def epoch_count(workload: Workload, seconds: float) -> int:
    """Measured epochs of a full-scale run.

    A count, not a stop-watch: at the ``run_seconds`` the driver passes
    it is the workload's own, so every run of a seed replays the same
    dialogues on any commit; another ``--seconds`` scales it.
    """
    return max(1, round(workload.epochs * seconds / SPEC["run_seconds"]))


# ----------------------------------------------------------------------
# end-to-end run
# ----------------------------------------------------------------------
def run_end_to_end(
    workload: Workload, seed: int, seconds: float, scale: Scale = FULL
) -> Dict[str, Any]:
    """One measured run of one workload against a real server child."""
    cpu = pin_to_one_cpu()
    t0 = time.perf_counter()
    database = make_database(scale.n_images)
    n_epochs = scale.epochs or epoch_count(workload, seconds)
    epoch_size = scale.epoch_dialogues or workload.epoch_dialogues
    warmup = scale.warmup_dialogues or workload.warmup_dialogues
    with scratch_dir() as tmp:
        db_path = tmp / "db.npz"
        database.save(db_path)
        input_gen_s = time.perf_counter() - t0
        plan = build_plan(
            workload, seed, warmup + n_epochs * epoch_size, database.features
        )
        with ServerProcess(workload, db_path, tmp) as server:
            setups = [server.start()]
            setup_walls = [server.setup_wall_s]
            gen = LoadGenerator(
                server, plan, database.labels, cpu, keep_ids=workload.writes
            )
            try:
                warm = gen.run_epoch(warmup)
                deadline = time.perf_counter() + OVERRUN * seconds
                epochs = []
                while len(epochs) < n_epochs and (
                    len(epochs) < MIN_CALM or time.perf_counter() < deadline
                ):
                    epochs.append(gen.run_epoch(epoch_size))
            finally:
                gen.close()
            # The other cold starts come after the epochs: a loaded host
            # stays loaded for tens of seconds, and the three starts of
            # a run should not all fall into the same ten.
            for _ in range(scale.cold_starts - 1):
                server.stop()
                setups.append(server.start())
                setup_walls.append(server.setup_wall_s)
    if scale is FULL and not all(e.supports_tail() for e in epochs):
        raise BenchmarkError(
            "an epoch has too few feedback rounds for the tail percentile "
            "reported (fewer than 10 beyond it)"
        )
    records = [d for e in epochs for d in e.dialogues]
    writes = [w for e in epochs for w in e.writes]
    info: Dict[str, float] = {}
    if workload.writes:
        # the warm-up's writes and reads are part of the same history
        problems, compactions = verify_mixed_invariants(
            warm.dialogues + records, warm.writes + writes,
            n_images=scale.n_images, k=workload.k,
            compact_threshold=workload.compact_threshold,
        )
        info["compactions_confirmed"] = compactions
    else:
        problems = verify_against_reference(database, plan, records)

    metrics = summarize(epochs)
    metrics["setup_s"] = statistics.median(setups)
    metrics["setup_wall_s"] = statistics.median(setup_walls)
    metrics["peak_rss_mb"] = epochs[-1].peak_rss_mb
    missing = sorted(set(MEASURED) - set(metrics))
    if missing:
        raise BenchmarkError(f"no samples for {missing}")
    attempted = sum(d.ops for d in records) + len(writes)
    failed = sum(d.failed for d in records) + sum(
        w.status != "ok" for w in writes
    )
    finalized = [d for d in records if d.outcome == "finalized"]
    # Never gated: the measured metrics BENCHMARK.json does not list
    # and percentiles of the pooled sample of all measured epochs.
    info.update((k, v) for k, v in metrics.items() if k not in END_TO_END)
    info.update(
        (f"{name}_pooled_p{q:g}_ms", 1000.0 * percentile(series, q))
        for name, series in (
            ("dialogue", [d.total_s for d in finalized]),
            ("finalize", [d.finalize_s for d in finalized]),
            ("feedback", [s for d in records for s in d.feedback_s]),
        )
        for q in (90.0, 95.0, 99.0)
        if series
    )
    return {
        "workload": workload.name,
        "scale": scale.label,
        "seed": seed,
        "correct": not problems,
        "problems": problems[:20],
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: metrics[name] for name in END_TO_END},
        "info": info,
        "detail": {
            "cpu": cpu,
            "epochs": [e.metrics() for e in epochs],
            "calm_epochs": calm_epochs([e.steal_share for e in epochs]),
            "epoch_steal_share": [e.steal_share for e in epochs],
            "epoch_wall_s": [e.wall_s for e in epochs],
            "epoch_peak_rss_mb": [e.peak_rss_mb for e in epochs],
            "epoch_samples": [
                {name: len(v) for name, v in e.series().items()}
                for e in epochs
            ],
            "setup_s_each": setups,
            "setup_wall_s_each": setup_walls,
            "input_gen_s": input_gen_s,
            "dialogues": len(records),
            "finalized": len(finalized),
            "abandoned": sum(d.outcome == "abandoned" for d in records),
            "writes": len(writes),
            "write_ms": [1000.0 * w.seconds for w in warm.writes + writes],
            "verified_dialogues": sum(d.value is not None for d in records),
            "thread_env": THREAD_ENV,
        },
    }


# ----------------------------------------------------------------------
# output
# ----------------------------------------------------------------------
def driver_line(result: Dict[str, Any], spec: Dict[str, Any]) -> str:
    """The one JSON object the driver reads from the last line."""
    metrics = {}
    for name, meta in spec.items():
        value = result["metrics"].get(name)
        # A layer whose wrapped function is gone reports null in the
        # table and the detail file; the driver's format wants a number.
        metrics[name] = {
            "value": 0.0 if value is None else value, "unit": meta["unit"]
        }
    return json.dumps(
        {
            "correct": bool(result["correct"]),
            "attempted": int(result["attempted"]),
            "failed": int(result["failed"]),
            "metrics": metrics,
        }
    )


def save_detail(kind: str, result: Dict[str, Any]) -> None:
    RESULTS.mkdir(exist_ok=True)
    path = RESULTS / f"{kind}_{result['workload']}.json"
    path.write_text(json.dumps(result, indent=1, default=float) + "\n")


def format_value(value: Optional[float]) -> str:
    if value is None:
        return "null"
    if value == int(value) and abs(value) < 1e9:
        return str(int(value))
    return f"{value:.4g}"


def print_table(
    title: str,
    spec: Dict[str, Any],
    results: Sequence[Dict[str, Any]],
    stamp: str,
) -> None:
    names = [r["workload"] for r in results]
    info_names: List[str] = []
    for result in results:
        info_names.extend(
            n for n in result.get("info", {}) if n not in info_names
        )
    width = max(len(n) for n in [*spec, *info_names]) + 2
    print(f"\n== {title} [{stamp}] ==")
    print(
        f"{'metric':<{width}}{'unit':<7}"
        + "".join(f"{n:>18}" for n in names)
    )
    for name, meta in spec.items():
        cells = "".join(
            f"{format_value(r['metrics'].get(name)):>18}" for r in results
        )
        print(f"{name:<{width}}{meta['unit']:<7}{cells}")
    if info_names:
        print("-- information only, never gated --")
    for name in info_names:
        cells = "".join(
            f"{format_value(r['info'].get(name)):>18}" for r in results
        )
        unit = MEASURED.get(name, "ms" if name.endswith("_ms") else "count")
        print(f"{name:<{width}}{unit:<7}{cells}")


def report_problems(result: Dict[str, Any]) -> None:
    for problem in result["problems"]:
        print(
            f"VERIFICATION FAILED [{result['workload']}]: {problem}",
            file=sys.stderr,
        )


# ----------------------------------------------------------------------
# modes
# ----------------------------------------------------------------------
def run_traced(
    workload: Workload, seed: int, scale: Scale
) -> Dict[str, Any]:
    from tracing import trace_workload

    pin_to_one_cpu()
    database = make_database(scale.n_images)
    with scratch_dir() as tmp:
        result = trace_workload(
            workload, seed, database, tmp,
            n_dialogues=scale.trace_dialogues or workload.trace_dialogues,
            n_warmup=scale.trace_warmup,
            spans_path=RESULTS / f"trace_{workload.name}.jsonl",
        )
    result["scale"] = scale.label
    result["metrics"] = {name: result["metrics"][name] for name in PER_LAYER}
    return result


def run_everything(seed: int, seconds: float, scale: Scale) -> int:
    """All workloads end to end, then traced; prints both tables."""
    end_to_end = []
    for workload in WORKLOADS.values():
        print(f"[e2e] {workload.name} ...", file=sys.stderr, flush=True)
        result = run_end_to_end(workload, seed, seconds, scale)
        save_detail("e2e", result)
        end_to_end.append(result)
    traced = []
    for workload in WORKLOADS.values():
        print(f"[trace] {workload.name} ...", file=sys.stderr, flush=True)
        result = run_traced(workload, seed, scale)
        save_detail("trace", result)
        traced.append(result)
    print_table("end to end", END_TO_END, end_to_end, scale.label)
    print(
        f"{'ops attempted / failed':<34}"
        + "".join(
            f"{str(r['attempted']) + ' / ' + str(r['failed']):>18}"
            for r in end_to_end
        )
    )
    print_table("per layer (traced run)", PER_LAYER, traced, scale.label)
    bad = [r for r in end_to_end + traced if not r["correct"]]
    for result in bad:
        report_problems(result)
    for result in traced:
        for warning in result["detail"].get("warnings", []):
            print(f"warning [{result['workload']}]: {warning}", file=sys.stderr)
    print(f"\nverification: {'FAILED' if bad else 'ok'}  [{scale.label}]")
    return 1 if bad else 0


def run_aa(n_runs: int, seed: int, seconds: float) -> int:
    """Two interleaved sets of runs of the same code, set against bounds.

    Gated metrics breach when the set medians differ by more than
    their bound; the demoted ones are listed beside them, so the table
    shows what each demotion rests on.
    """
    sets: List[Dict[str, Dict[str, List[float]]]] = [{}, {}]
    incorrect = 0
    for i in range(n_runs):
        for side in (0, 1):
            run_seed = seed + 2 * i + side
            for workload in WORKLOADS.values():
                print(
                    f"[aa] run {i + 1}/{n_runs} set {'AB'[side]} "
                    f"{workload.name} seed {run_seed}",
                    file=sys.stderr, flush=True,
                )
                result = run_end_to_end(workload, run_seed, seconds)
                incorrect += not result["correct"]
                report_problems(result)
                per_metric = sets[side].setdefault(workload.name, {})
                for name in MEASURED:
                    value = result["metrics"].get(
                        name, result["info"].get(name)
                    )
                    per_metric.setdefault(name, []).append(value)
    breaches = 0
    print(
        "\n| workload | metric | median A | median B | difference | "
        "bound |\n|---|---|---|---|---|---|"
    )
    for workload in WORKLOADS:
        for name in MEASURED:
            med_a = statistics.median(sets[0][workload][name])
            med_b = statistics.median(sets[1][workload][name])
            difference = abs(med_b - med_a) / med_a
            if name in END_TO_END:
                bound = END_TO_END[name]["bound"]
                breach = difference > bound
                breaches += breach
                verdict = f"{100 * bound:.0f} %{' BREACH' if breach else ''}"
            else:
                verdict = "information only"
            print(
                f"| {workload} | {name} | {med_a:.4g} | {med_b:.4g} | "
                f"{100 * difference:.1f} % | {verdict} |"
            )
    print(f"\n{breaches} breach(es), {incorrect} incorrect run(s)")
    return 1 if breaches or incorrect else 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument(
        "--seconds", type=float, default=float(SPEC["run_seconds"]),
        help="scales the number of measured epochs (see epoch_count)",
    )
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--aa", type=int, nargs="?", const=3, metavar="N",
        help="A/A check: two interleaved sets of N full runs",
    )
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args(argv)
    # a terminated run unwinds like any other: server killed, temp
    # directory removed
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    scale = SMOKE if args.smoke else FULL
    if args.aa is not None:
        return run_aa(args.aa, args.seed, args.seconds)
    if args.workload is None:
        return run_everything(args.seed, args.seconds, scale)
    workload = WORKLOADS[args.workload]
    if args.trace:
        result = run_traced(workload, args.seed, scale)
        save_detail("trace", result)
        spec = PER_LAYER
        for warning in result["detail"].get("warnings", []):
            print(f"warning: {warning}", file=sys.stderr)
    else:
        result = run_end_to_end(workload, args.seed, args.seconds, scale)
        save_detail("e2e", result)
        spec = END_TO_END
    report_problems(result)
    print_table(f"{workload.name} seed {args.seed}", spec, [result], scale.label)
    print(driver_line(result, spec))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
