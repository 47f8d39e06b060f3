"""Perf — sustained 95/5 read/write traffic through the delta segment.

Models a stream that is 95% final-round reads and 5% index mutations
(inserts of fresh vectors, removals of existing ids), served — with a
warm :class:`~repro.cache.SubqueryResultCache`, as in production — by
the generational write path
(:class:`repro.index.generations.GenerationController`): writes land in
the delta, reads traverse main store + delta with rankings
bit-identical to a rebuild, and compaction folds the delta in off the
hot path.

A second measurement checks that the result cache *survives*
mutations: warm a cache over a fixed read set, then apply mutations
routed to other leaves, and measure the hit rate of re-serving the
same reads.

Runs two ways:

* ``pytest benchmarks/bench_mutation_throughput.py`` — report fixtures.
* ``python benchmarks/bench_mutation_throughput.py [--tiny]`` —
  fixture-free script entry for CI smoke.

``QD_BENCH_TINY=1`` (or ``--tiny``) shrinks the workload for CI.

Acceptance: the warm-cache hit rate across other-leaf mutations stays
>= 0.5 (a per-mutation global flush would make it 0).
"""

from __future__ import annotations

import os
import time

import numpy as np

from _harness import TINY_ENV, BenchResult, emit, tiny_arg_parser
from repro.cache import SubqueryResultCache
from repro.config import MutationConfig, QDConfig, RFSConfig
from repro.core.ranking import execute_final_round
from repro.datasets.build import build_synthetic_database
from repro.index.generations import GenerationController
from repro.index.rfs import RFSStructure
from repro.store import FeatureStore

TINY = os.environ.get("QD_BENCH_TINY") == "1"
SEED = 2006
MARKS_PER_QUERY = 6
WRITE_EVERY = 20  # 1 write per 20 ops = the 95/5 mix
CACHE_BYTES = 32 << 20


def _params(tiny: bool) -> dict:
    if tiny:
        return dict(n_images=2_000, n_categories=30, ops=120, k=40,
                    pool=8, repeats=2)
    return dict(n_images=12_000, n_categories=150, ops=600, k=40,
                pool=24, repeats=3)


def _build(p: dict):
    """Fresh database + structure + store (one per deployment)."""
    database = build_synthetic_database(
        p["n_images"], n_categories=p["n_categories"], seed=SEED
    )
    rfs = RFSStructure.build(database.features, RFSConfig(), seed=SEED)
    rfs.attach_store(FeatureStore.build(rfs), validate=False)
    return database, rfs


def _workload(database, p: dict):
    """The shared op stream: (op, payload) tuples, 95% reads.

    Reads are final rounds over a fixed pool of category queries;
    writes alternate between inserting a fresh vector and removing one
    of a reserved block of ids (never referenced by any read's marks).
    """
    rng = np.random.default_rng(SEED + 1)
    categories = rng.choice(
        p["n_categories"], size=p["pool"], replace=False
    )
    pool = []
    for cat in categories:
        members = np.flatnonzero(database.labels == cat)
        pool.append(tuple(int(i) for i in members[:MARKS_PER_QUERY]))
    read_marks = set()
    for marks in pool:
        read_marks.update(marks)
    removable = [
        i for i in range(database.size) if i not in read_marks
    ]
    ops = []
    n_removed = 0
    for i in range(p["ops"]):
        if i % WRITE_EVERY == WRITE_EVERY - 1:
            if i % (2 * WRITE_EVERY) == WRITE_EVERY - 1:
                ops.append(
                    ("insert", rng.normal(size=database.dims))
                )
            else:
                ops.append(("remove", removable[n_removed]))
                n_removed += 1
        else:
            ops.append(
                ("read", pool[int(rng.integers(0, len(pool)))])
            )
    return ops


def _serve_generational(rfs, ops, k) -> float:
    rfs.attach_cache(SubqueryResultCache(CACHE_BYTES))
    controller = GenerationController(
        rfs, config=MutationConfig(auto_compact=False), seed=SEED
    )
    start = time.perf_counter()
    for op, payload in ops:
        if op == "read":
            execute_final_round(
                controller.current, payload, k, QDConfig(),
                rounds_used=3,
            )
        elif op == "insert":
            controller.insert(payload)
        else:
            controller.remove(payload)
    elapsed = time.perf_counter() - start
    controller.close()
    return elapsed


def _cache_survival(p: dict) -> tuple[float, int]:
    """Warm-cache hit rate across mutations touching *other* leaves.

    Returns ``(hit_rate, evicted_entries)`` for re-serving the warmed
    read set after the generational mutations land.
    """
    database, rfs = _build(p)
    ops = _workload(database, p)
    reads = [payload for op, payload in ops if op == "read"]
    distinct = list(dict.fromkeys(reads))
    cache = SubqueryResultCache(CACHE_BYTES)
    rfs.attach_cache(cache)
    controller = GenerationController(
        rfs, config=MutationConfig(auto_compact=False), seed=SEED
    )
    for marks in distinct:  # warm every distinct read once
        execute_final_round(rfs, marks, p["k"], QDConfig(),
                            rounds_used=3)
    for op, payload in ops:
        if op == "insert":
            controller.insert(payload)
        elif op == "remove":
            controller.remove(payload)
    before = cache.snapshot()
    for marks in distinct:
        execute_final_round(rfs, marks, p["k"], QDConfig(),
                            rounds_used=3)
    after = cache.snapshot()
    controller.close()
    lookups = (after["hits"] + after["misses"]) - (
        before["hits"] + before["misses"]
    )
    hit_rate = (after["hits"] - before["hits"]) / max(1, lookups)
    return hit_rate, after["mutation_evictions"]


def run_mutation_bench(tiny: bool) -> tuple[list[str], dict]:
    p = _params(tiny)
    n_reads = sum(
        1 for i in range(p["ops"]) if i % WRITE_EVERY != WRITE_EVERY - 1
    )
    n_writes = p["ops"] - n_reads

    gen_s = float("inf")
    for _ in range(p["repeats"]):
        database, rfs = _build(p)
        ops = _workload(database, p)
        gen_s = min(gen_s, _serve_generational(rfs, ops, p["k"]))

    hit_rate, evicted = _cache_survival(p)
    scale = "tiny" if tiny else "full"
    rows = [
        f"Mutation throughput: {p['ops']} ops ({n_reads} reads / "
        f"{n_writes} writes), {p['n_images']} images, k={p['k']} "
        f"({scale})",
        f"  generational delta   {gen_s * 1000:8.1f} ms   "
        f"{p['ops'] / gen_s:7.1f} ops/s",
        f"  warm-cache survival  hit rate {hit_rate:.0%} across "
        f"{n_writes} mutations ({evicted} entries evicted)",
    ]
    metrics = {
        "cache_survival_hit_rate": hit_rate,
        "generational_s": gen_s,
    }
    return rows, metrics


def _bench_result(tiny: bool, metrics: dict) -> BenchResult:
    p = _params(tiny)
    result = BenchResult.new("mutation_throughput", {**p, "tiny": tiny})
    result.record(
        "cache_survival_hit_rate", metrics["cache_survival_hit_rate"],
        unit="ratio", higher_is_better=True, min_abs=0.05,
    )
    result.record(
        "generational_s", metrics["generational_s"], unit="s",
        higher_is_better=False, compare=False,
    )
    return result


def _check(metrics: dict) -> None:
    # Mutations routed to other leaves must not flush the warm cache.
    assert metrics["cache_survival_hit_rate"] >= 0.5


def test_mutation_throughput(report, benchmark):
    rows, metrics = run_mutation_bench(TINY)
    report("\n".join(rows))
    _bench_result(TINY, metrics).write(
        os.path.join(os.path.dirname(__file__), "results")
    )
    benchmark.extra_info["generational_ms"] = round(
        metrics["generational_s"] * 1000, 1
    )
    benchmark.extra_info["cache_survival_hit_rate"] = round(
        metrics["cache_survival_hit_rate"], 3
    )
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    _check(metrics)


def main(argv=None) -> int:
    parser = tiny_arg_parser(
        "Mutation throughput benchmark (fixture-free entry)"
    )
    args = parser.parse_args(argv)
    tiny = args.tiny or TINY_ENV
    rows, metrics = run_mutation_bench(tiny)
    emit(rows, _bench_result(tiny, metrics))
    _check(metrics)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
