"""Extension — the compressed scan tier of the leaf-contiguous store.

The quantized ``int8`` store tier (``repro.store.quantize``) keeps the
exact float32 rows for re-ranking but serves every leaf block scan from
a compressed codes sidecar — int8 scalar quantization, 4x fewer bytes.
Rankings are bit-identical to the pure-float32 store (the
ε-bounded candidate set provably contains the true top-k, which is then
re-ranked through the exact rows and kernels); only the bytes moved per
scan shrink.  This bench measures:

* the on-disk scan-bytes compression ratio of the int8 tier,
* the ``bytes_read`` reduction of a final-round workload (the disk
  model charges leaf blocks at their compressed size),
* the time of one vectorized batch of item→leaf lookups
  (``RFSStructure.leaves_of_items``).

It times no scan: the int8 tier moves fewer bytes but does more work
per row (an exact re-rank of the survivors), and at zero device latency
its cold final round runs at 0.92x the f32 one on two cores.

Runs two ways:

* ``pytest benchmarks/bench_quantized_store.py`` — report/benchmark
  fixtures, rows appended to ``benchmarks/results/latest.txt``.
* ``python benchmarks/bench_quantized_store.py [--tiny]`` —
  fixture-free script entry for CI smoke (same rows, same results
  file).

``QD_BENCH_TINY=1`` (or ``--tiny``) shrinks the workload for CI.

Acceptance: >= 4x int8 scan-byte compression, with rankings
bit-identical to f32.
"""

from __future__ import annotations

import os
import tempfile
import time

import numpy as np

from _harness import TINY_ENV, emit, tiny_arg_parser
from repro import obs
from repro.config import BuildConfig, QDConfig, RFSConfig
from repro.core.ranking import execute_final_round
from repro.datasets.build import build_synthetic_database
from repro.index.rfs import RFSStructure
from repro.store import FeatureStore

TINY = os.environ.get("QD_BENCH_TINY") == "1"
SEED = 2006
N_QUERY_CATEGORIES = 3
MARKS_PER_CATEGORY = 4
ROUNDS_USED = 3
LOOKUP_IDS = 10_000


def _params(tiny: bool) -> dict:
    """Workload shape: few groups, large quotas -> multi-leaf scans."""
    if tiny:
        return dict(n_images=2_000, n_categories=30, k=300,
                    min_bytes_reduction=3.0)
    return dict(n_images=100_000, n_categories=150, k=1_200,
                min_bytes_reduction=3.5)


def _build_workload(p: dict):
    database = build_synthetic_database(
        p["n_images"], n_categories=p["n_categories"], seed=SEED
    )
    rfs = RFSStructure.build(
        database.features,
        RFSConfig(),
        seed=SEED,
        build=BuildConfig(executor="thread"),
    )
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


def _run_round(rfs, marks, k):
    return execute_final_round(
        rfs, marks, k, QDConfig(), rounds_used=ROUNDS_USED
    )


def _cold_round(rfs, store_dir, marks, k):
    """One final round on a freshly attached memmap store.

    Returns (bytes the disk model charged, result).
    """
    rfs.io.reset()
    rfs.attach_store(
        FeatureStore.open(store_dir, mode="memmap"), validate=False
    )
    result = _run_round(rfs, marks, k)
    return rfs.io.bytes_read, result


def _lookup_bench(rfs, n_items):
    """Best-of-3 seconds for one batch of item→leaf lookups."""
    rng = np.random.default_rng(SEED)
    ids = rng.integers(0, n_items, size=min(LOOKUP_IDS, n_items))
    best = float("inf")
    for _ in range(3):
        start = time.perf_counter()
        rfs.leaves_of_items(ids)
        best = min(best, time.perf_counter() - start)
    return best


def run_quantized_bench(tiny: bool) -> tuple[list[str], dict]:
    """Run every measurement; returns (report rows, metrics dict)."""
    p = _params(tiny)
    rfs, marks = _build_workload(p)

    metrics: dict = {}
    signatures = {}
    bytes_read = {}
    compression = {}
    with tempfile.TemporaryDirectory() as tmp:
        for tier in ("f32", "int8"):
            store = FeatureStore.build(rfs, tier=tier)
            compression[tier] = store.compression_ratio
            directory = os.path.join(tmp, tier)
            store.save(directory)
            bytes_read[tier], result = _cold_round(
                rfs, directory, marks, p["k"]
            )
            signatures[tier] = _signature(result)
        batch_s = _lookup_bench(rfs, p["n_images"])
        rfs.detach_store()

    # The acceptance property: compressed scans, identical rankings.
    assert signatures["int8"] == signatures["f32"]

    metrics.update(
        int8_compression=compression["int8"],
        int8_bytes_reduction=bytes_read["f32"] / max(1, bytes_read["int8"]),
        f32_bytes_read=float(bytes_read["f32"]),
        int8_bytes_read=float(bytes_read["int8"]),
        lookup_batch_s=batch_s,
        min_bytes_reduction=p["min_bytes_reduction"],
    )

    scale = "tiny" if tiny else "full"
    rows = [
        "Quantized store tiers: final round, "
        f"{p['n_images']} images, {len(marks)} marks, k={p['k']} "
        f"({scale})",
        f"  f32  cold scan  {bytes_read['f32'] / 1e6:8.3f} MB read",
        f"  int8 cold scan  {bytes_read['int8'] / 1e6:8.3f} MB read   "
        f"{metrics['int8_bytes_reduction']:.2f}x fewer "
        f"({compression['int8']:.1f}x compression)",
        "  rankings bit-identical across both tiers",
        f"  item->leaf lookup: batch {batch_s * 1e6:8.1f} us "
        f"({min(LOOKUP_IDS, p['n_images'])} ids)",
    ]
    return rows, metrics


def _bench_result(tiny: bool, metrics: dict) -> obs.BenchResult:
    """The canonical ``BENCH_quantized_store.json`` record."""
    p = _params(tiny)
    result = obs.BenchResult.new("quantized_store", {**p, "tiny": tiny})
    result.record(
        "int8_compression", metrics["int8_compression"], unit="x",
        higher_is_better=True,
    )
    result.record(
        "int8_bytes_reduction", metrics["int8_bytes_reduction"],
        unit="x", higher_is_better=True,
    )
    result.record(
        "lookup_batch_s", metrics["lookup_batch_s"], unit="s",
        higher_is_better=False, compare=False,
    )
    for name in ("f32_bytes_read", "int8_bytes_read"):
        result.record(
            name, metrics[name], unit="B", higher_is_better=False,
            compare=False,
        )
    return result


def _check(metrics: dict) -> None:
    # Acceptance: int8 stores exactly 1 byte/dim vs 4 -> 4x scan bytes.
    assert metrics["int8_compression"] >= 4.0
    # The disk model charges leaf blocks at compressed size; the scan
    # traffic of the same workload must shrink accordingly (slightly
    # under 4x is legal — the ε-pruning bound may scan an extra leaf).
    assert metrics["int8_bytes_reduction"] >= metrics["min_bytes_reduction"]


def test_quantized_store(report, benchmark):
    rows, metrics = run_quantized_bench(TINY)
    report("\n".join(rows))
    _bench_result(TINY, metrics).write(
        os.path.join(os.path.dirname(__file__), "results")
    )
    benchmark.extra_info["int8_bytes_reduction"] = round(
        metrics["int8_bytes_reduction"], 2
    )
    benchmark.pedantic(
        lambda: None, rounds=1, iterations=1
    )  # timing captured manually above; keep the bench in the report
    _check(metrics)


def main(argv=None) -> int:
    parser = tiny_arg_parser(
        "Quantized store tier benchmark (fixture-free entry)"
    )
    args = parser.parse_args(argv)
    tiny = args.tiny or TINY_ENV
    rows, metrics = run_quantized_bench(tiny)
    emit(rows, _bench_result(tiny, metrics))
    _check(metrics)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
