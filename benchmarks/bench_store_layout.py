"""Extension — final-round cost through the leaf-contiguous feature store.

The store (``repro.store``) reorders the database into leaf-contiguous
blocks and serves every localized k-NN scan through batched
norm-expansion kernels.  This bench times the end-to-end
``execute_final_round`` on a scan-heavy workload (few feedback groups,
large per-group quota) through an in-RAM and a memory-mapped store, the
cost of live tracing + metrics on the same round, the memmap cold-start
cost (``FeatureStore.open`` + attach + first round), and the per-leaf
kernel throughput of the fused multipoint kernel versus the
per-representative loop.

Runs two ways:

* ``pytest benchmarks/bench_store_layout.py`` — report/benchmark
  fixtures, rows appended to ``benchmarks/results/latest.txt``.
* ``python benchmarks/bench_store_layout.py [--tiny]`` — fixture-free
  script entry for CI smoke (same rows, same results file).

``QD_BENCH_TINY=1`` (or ``--tiny``) shrinks the workload for CI.

Acceptance: rankings bit-identical across inmem / memmap / obs-enabled
runs, the memmap backing within noise of the in-RAM one, the fused
kernel no slower than the per-representative loop, and obs overhead
within its smoke bound.
"""

from __future__ import annotations

import os
import tempfile
import time

import numpy as np

from _harness import TINY_ENV, BenchResult, emit, tiny_arg_parser
from repro import obs
from repro.config import QDConfig, RFSConfig
from repro.core.ranking import execute_final_round
from repro.datasets.build import build_synthetic_database
from repro.index.rfs import RFSStructure
from repro.retrieval.multipoint import MultipointQuery
from repro.store import FeatureStore, multipoint_distances

TINY = os.environ.get("QD_BENCH_TINY") == "1"
SEED = 2006
N_QUERY_CATEGORIES = 3
MARKS_PER_CATEGORY = 4
ROUNDS_USED = 3
KERNEL_ITERS = 50


def _params(tiny: bool) -> dict:
    """Workload shape: few groups, large quotas -> multi-leaf scans."""
    if tiny:
        return dict(n_images=2_000, n_categories=30, k=300, repeats=3)
    return dict(n_images=15_000, n_categories=150, k=1_200, repeats=5)


def _build_workload(p: dict):
    database = build_synthetic_database(
        p["n_images"], n_categories=p["n_categories"], seed=SEED
    )
    rfs = RFSStructure.build(database.features, RFSConfig(), seed=SEED)
    categories = np.linspace(
        3, p["n_categories"] - 10, N_QUERY_CATEGORIES
    ).astype(int)
    marks = [
        int(image_id)
        for cat in categories
        for image_id in np.flatnonzero(database.labels == cat)[
            :MARKS_PER_CATEGORY
        ]
    ]
    assert len(marks) == N_QUERY_CATEGORIES * MARKS_PER_CATEGORY
    return rfs, marks


def _signature(result):
    return [
        (
            group.leaf_node_id,
            tuple((item.item_id, item.score) for item in group.items),
        )
        for group in result.groups
    ]


def _time_round(rfs, marks, k, repeats) -> tuple[float, object]:
    """Best-of-``repeats`` wall time of one final round."""
    best = float("inf")
    result = None
    for _ in range(repeats):
        start = time.perf_counter()
        result = execute_final_round(
            rfs, marks, k, QDConfig(), rounds_used=ROUNDS_USED
        )
        best = min(best, time.perf_counter() - start)
    return best, result


def _time_cold_start(rfs, marks, k, store_dir, repeats) -> float:
    """Best-of-``repeats`` memmap cold start: open + attach + round."""
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        rfs.attach_store(
            FeatureStore.open(store_dir, mode="memmap"), validate=False
        )
        execute_final_round(rfs, marks, k, QDConfig(), rounds_used=ROUNDS_USED)
        best = min(best, time.perf_counter() - start)
    return best


def _kernel_throughput(rfs, marks) -> tuple[float, float, int]:
    """(fused, looped) distance evals/s on the largest leaf block."""
    store = rfs.store
    leaf = max(
        (node for node in rfs.nodes.values() if node.is_leaf),
        key=lambda node: node.size,
    )
    block, _, sqnorms = store.node_block(leaf.node_id)
    reps = rfs.vectors_for(np.asarray(marks, dtype=np.int64))
    query = MultipointQuery(reps)
    evals = block.shape[0] * reps.shape[0]

    def best_of(fn) -> float:
        best = float("inf")
        for _ in range(3):
            start = time.perf_counter()
            for _ in range(KERNEL_ITERS):
                fn()
            best = min(best, (time.perf_counter() - start) / KERNEL_ITERS)
        return best

    fused_s = best_of(
        lambda: multipoint_distances(
            block, query.points, query.weights, block_sqnorms=sqnorms
        )
    )
    looped_s = best_of(lambda: query.distances(np.asarray(block)))
    return evals / fused_s, evals / looped_s, evals


def run_store_bench(tiny: bool) -> tuple[list[str], dict]:
    """Run every measurement; returns (report rows, metrics dict)."""
    p = _params(tiny)
    rfs, marks = _build_workload(p)

    store = FeatureStore.build(rfs)
    rfs.attach_store(store)
    warm_s, warm_result = _time_round(rfs, marks, p["k"], p["repeats"])

    # Obs-overhead leg: the same warm workload with a live tracer and
    # metrics registry installed.  Rankings must stay bit-identical and
    # the slowdown ratio is tracked as its own bench metric.
    tracer = obs.Tracer()
    registry = obs.MetricsRegistry()
    with obs.use_tracer(tracer), obs.use_metrics(registry):
        obs_s, obs_result = _time_round(rfs, marks, p["k"], p["repeats"])
    assert _signature(obs_result) == _signature(warm_result)
    assert len(tracer.spans) > 0
    assert registry.counters  # instrumentation actually fired

    with tempfile.TemporaryDirectory() as tmp:
        store.save(tmp)
        cold_s = _time_cold_start(rfs, marks, p["k"], tmp, p["repeats"])
        rfs.attach_store(
            FeatureStore.open(tmp, mode="memmap"), validate=False
        )
        memmap_s, memmap_result = _time_round(
            rfs, marks, p["k"], p["repeats"]
        )
        # Same bytes + same kernels: memmap is bit-identical to inmem.
        assert _signature(memmap_result) == _signature(warm_result)
        fused_eps, looped_eps, evals = _kernel_throughput(rfs, marks)
    rfs.detach_store()

    kernel_speedup = fused_eps / looped_eps
    obs_overhead = obs_s / warm_s
    scale = "tiny" if tiny else "full"
    rows = [
        "Feature-store layout: final round, "
        f"{p['n_images']} images, {len(marks)} marks, k={p['k']} "
        f"({scale})",
        f"  store warm (inmem)   {warm_s * 1000:8.1f} ms",
        f"  warm + obs enabled   {obs_s * 1000:8.1f} ms   "
        f"(overhead {obs_overhead:.2f}x, rankings identical)",
        f"  store warm (memmap)  {memmap_s * 1000:8.1f} ms   "
        "(rankings identical)",
        f"  memmap cold start    {cold_s * 1000:8.1f} ms   "
        "(open + attach + first round)",
        f"  leaf kernel: fused {fused_eps / 1e6:6.1f} M evals/s vs "
        f"per-rep loop {looped_eps / 1e6:6.1f} M evals/s "
        f"({kernel_speedup:.1f}x, {evals} evals/block)",
    ]
    metrics = {
        "kernel_speedup": kernel_speedup,
        "obs_overhead": obs_overhead,
        "warm_s": warm_s,
        "obs_s": obs_s,
        "memmap_s": memmap_s,
        "cold_start_s": cold_s,
    }
    return rows, metrics


def _bench_result(tiny: bool, metrics: dict) -> BenchResult:
    """The canonical ``BENCH_store_layout.json`` record."""
    p = _params(tiny)
    result = BenchResult.new("store_layout", {**p, "tiny": tiny})
    result.record(
        "kernel_speedup", metrics["kernel_speedup"], unit="x",
        higher_is_better=True,
    )
    result.record(
        "obs_overhead", metrics["obs_overhead"], unit="x",
        higher_is_better=False, min_abs=0.15,
    )
    for name in ("warm_s", "obs_s", "memmap_s", "cold_start_s"):
        result.record(
            name, metrics[name], unit="s", higher_is_better=False,
            compare=False,
        )
    return result


def _check(metrics: dict) -> None:
    # The memmap backing serves the same kernels from the same bytes —
    # it must stay within noise of the in-RAM store.
    assert metrics["memmap_s"] <= metrics["warm_s"] * 2.0
    # The fused kernel never loses to the per-representative loop.
    assert metrics["kernel_speedup"] >= 1.0
    # Live tracing + metrics must stay cheap (the nominal budget is 5%;
    # this smoke bound only catches a broken hot path, not CI jitter).
    assert metrics["obs_overhead"] <= 1.5


def test_store_layout_speedup(report, benchmark):
    rows, metrics = run_store_bench(TINY)
    report("\n".join(rows))
    _bench_result(TINY, metrics).write(
        os.path.join(os.path.dirname(__file__), "results")
    )
    benchmark.extra_info["warm_ms"] = round(metrics["warm_s"] * 1000, 2)
    benchmark.extra_info["memmap_ms"] = round(
        metrics["memmap_s"] * 1000, 2
    )
    benchmark.pedantic(
        lambda: None, rounds=1, iterations=1
    )  # timing captured manually above; keep the bench in the report
    _check(metrics)


def main(argv=None) -> int:
    parser = tiny_arg_parser(
        "Feature-store layout benchmark (fixture-free entry)"
    )
    args = parser.parse_args(argv)
    tiny = args.tiny or TINY_ENV
    rows, metrics = run_store_bench(tiny)
    emit(rows, _bench_result(tiny, metrics))
    _check(metrics)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
