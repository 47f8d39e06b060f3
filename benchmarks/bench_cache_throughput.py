"""Perf — cross-session result cache throughput.

Models a concurrent serving workload: many independent sessions finalize
against the same structure, and their interest is Zipfian — a few hot
queries (popular semantic regions) dominate the stream.  The bench
measures aggregate final-round throughput two ways:

* **uncached serial** — every session recomputes its subqueries
  (the pre-cache baseline),
* **cache-warm steady state** — the :class:`repro.cache.
  SubqueryResultCache` is attached and already hot, so repeated
  subqueries skip boundary expansion and block scans.

Runs two ways:

* ``pytest benchmarks/bench_cache_throughput.py`` — report/benchmark
  fixtures, rows appended to ``benchmarks/results/latest.txt``.
* ``python benchmarks/bench_cache_throughput.py [--tiny]`` —
  fixture-free script entry for CI smoke (same rows, same results file).

``QD_BENCH_TINY=1`` (or ``--tiny``) shrinks the workload for CI.

Acceptance (ISSUE): >= 2x aggregate QPS at cache-warm steady state on
the Zipfian workload at full scale (the tiny smoke asserts a relaxed
>= 1.2x), with every cached ranking bit-identical to the serial
uncached path.
"""

from __future__ import annotations

import os
import time

import numpy as np

from _harness import TINY_ENV, BenchResult, emit, tiny_arg_parser
from repro.cache import SubqueryResultCache
from repro.config import QDConfig, RFSConfig
from repro.core.ranking import execute_final_round
from repro.datasets.build import build_synthetic_database
from repro.index.rfs import RFSStructure

TINY = os.environ.get("QD_BENCH_TINY") == "1"
SEED = 2006
MARKS_PER_QUERY = 6
ZIPF_EXPONENT = 1.1
CACHE_BYTES = 64 << 20


def _params(tiny: bool) -> dict:
    """Workload shape: a hot-skewed stream over a fixed query pool."""
    if tiny:
        return dict(n_images=2_000, n_categories=30, pool=10, stream=40,
                    k=60, repeats=3, min_speedup=1.2)
    return dict(n_images=15_000, n_categories=150, pool=40, stream=200,
                k=60, repeats=3, min_speedup=2.0)


def _build_workload(p: dict):
    """The structure plus a Zipf-ranked stream of final-round queries."""
    database = build_synthetic_database(
        p["n_images"], n_categories=p["n_categories"], seed=SEED
    )
    rfs = RFSStructure.build(database.features, RFSConfig(), seed=SEED)
    rng = np.random.default_rng(SEED)
    categories = rng.choice(
        p["n_categories"], size=p["pool"], replace=False
    )
    pool = []
    for cat in categories:
        members = np.flatnonzero(database.labels == cat)
        pool.append(
            tuple(int(i) for i in members[:MARKS_PER_QUERY])
        )
    ranks = np.arange(1, p["pool"] + 1, dtype=np.float64)
    probs = ranks**-ZIPF_EXPONENT
    probs /= probs.sum()
    stream = [
        pool[i]
        for i in rng.choice(p["pool"], size=p["stream"], p=probs)
    ]
    return rfs, stream


def _signature(result):
    return [
        (
            group.leaf_node_id,
            tuple((item.item_id, item.score) for item in group.items),
        )
        for group in result.groups
    ]


def _run_stream(rfs, stream, k) -> list:
    return [
        execute_final_round(rfs, marks, k, QDConfig(), rounds_used=3)
        for marks in stream
    ]


def _time_stream(rfs, stream, k, repeats) -> tuple[float, list]:
    """Best-of-``repeats`` wall time of serving the whole stream."""
    best = float("inf")
    results = None
    for _ in range(repeats):
        start = time.perf_counter()
        results = _run_stream(rfs, stream, k)
        best = min(best, time.perf_counter() - start)
    return best, results


def run_cache_bench(tiny: bool) -> tuple[list[str], dict]:
    """Run every measurement; returns (report rows, metrics dict)."""
    p = _params(tiny)
    rfs, stream = _build_workload(p)
    n = len(stream)

    # Baseline: every session recomputes (no cache attached).
    uncached_s, baseline = _time_stream(rfs, stream, p["k"], p["repeats"])
    baseline_sigs = [_signature(r) for r in baseline]

    # Cache-warm steady state: attach, warm once, then time the stream.
    cache = SubqueryResultCache(CACHE_BYTES)
    rfs.attach_cache(cache)
    _run_stream(rfs, stream, p["k"])  # warm-up pass
    before = cache.snapshot()
    warm_s, warm_results = _time_stream(rfs, stream, p["k"], p["repeats"])
    after = cache.snapshot()
    assert [_signature(r) for r in warm_results] == baseline_sigs
    lookups = (after["hits"] + after["misses"]) - (
        before["hits"] + before["misses"]
    )
    hit_rate = (after["hits"] - before["hits"]) / max(1, lookups)
    rfs.detach_cache()

    warm_speedup = uncached_s / warm_s
    scale = "tiny" if tiny else "full"
    rows = [
        f"Result cache: Zipfian stream of {n} final rounds over "
        f"{p['pool']} distinct queries, {p['n_images']} images, "
        f"k={p['k']} ({scale})",
        f"  uncached serial      {uncached_s * 1000:8.1f} ms   "
        f"{n / uncached_s:7.1f} qps   1.00x",
        f"  cache-warm serial    {warm_s * 1000:8.1f} ms   "
        f"{n / warm_s:7.1f} qps   {warm_speedup:.2f}x   "
        f"(hit rate {hit_rate:.0%})",
    ]
    metrics = {
        "warm_speedup": warm_speedup,
        "hit_rate": hit_rate,
        "uncached_s": uncached_s,
        "warm_s": warm_s,
        "min_speedup": p["min_speedup"],
    }
    return rows, metrics


def _bench_result(tiny: bool, metrics: dict) -> BenchResult:
    """The canonical ``BENCH_cache_throughput.json`` record."""
    p = _params(tiny)
    result = BenchResult.new("cache_throughput", {**p, "tiny": tiny})
    result.record(
        "warm_speedup", metrics["warm_speedup"], unit="x",
        higher_is_better=True,
    )
    result.record(
        "hit_rate", metrics["hit_rate"], unit="ratio",
        higher_is_better=True, min_abs=0.02,
    )
    for name in ("uncached_s", "warm_s"):
        result.record(
            name, metrics[name], unit="s", higher_is_better=False,
            compare=False,
        )
    return result


def _check(metrics: dict) -> None:
    # Acceptance: warm steady state beats the uncached path.
    assert metrics["warm_speedup"] >= metrics["min_speedup"]
    # Every repeated subquery of the steady-state stream must hit.
    assert metrics["hit_rate"] >= 0.9


def test_cache_throughput(report, benchmark):
    rows, metrics = run_cache_bench(TINY)
    report("\n".join(rows))
    _bench_result(TINY, metrics).write(
        os.path.join(os.path.dirname(__file__), "results")
    )
    benchmark.extra_info["warm_speedup"] = round(
        metrics["warm_speedup"], 2
    )
    benchmark.extra_info["hit_rate"] = round(metrics["hit_rate"], 3)
    benchmark.pedantic(
        lambda: None, rounds=1, iterations=1
    )  # timing captured manually above; keep the bench in the report
    _check(metrics)


def main(argv=None) -> int:
    parser = tiny_arg_parser(
        "Result-cache throughput benchmark (fixture-free entry)"
    )
    args = parser.parse_args(argv)
    tiny = args.tiny or TINY_ENV
    rows, metrics = run_cache_bench(tiny)
    emit(rows, _bench_result(tiny, metrics))
    _check(metrics)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
