"""Perf — the offline RFS build: CPU of the build.

Models the offline index build at the paper's scale (15,000 images).
``serial_cpu_s`` is the process CPU seconds of ``RFSStructure.build``
(which runs on the calling thread), median of five.  This is what a ``serve`` start and an
inline compaction pay, and the number a change to the build kernels
moves (the 2-means bisect, k-means++ seeding, Lloyd, nearest-candidate
search).  ``tree_cpu_s`` and ``reps_cpu_s`` split each of those builds
at its ``progress`` events — the cluster tree, then representative
selection — so a change can name the phase it moves; they are
information only (not compared).  So is ``exact_rows``: the rows one
serial build runs through the exact distance kernel
(``clustering.kmeans.sq_distances_into``, the build's only one), a
count that repeats exactly and shows how much of the build's distance
work the certified float filter settles without it.

The BLAS under numpy is pinned to one thread, as the e2e benchmark pins
its server: an idle second OpenBLAS thread spins, and process CPU counts
it.  The pin is set before numpy loads, which it does in the script
entry; under pytest numpy is loaded first, so set ``OMP_NUM_THREADS``,
``OPENBLAS_NUM_THREADS`` and ``MKL_NUM_THREADS`` to 1 in the
environment there.

Runs two ways:

* ``pytest benchmarks/bench_build_throughput.py`` — report/benchmark
  fixtures, rows appended to ``benchmarks/results/latest.txt``.
* ``python benchmarks/bench_build_throughput.py [--tiny]`` —
  fixture-free script entry for CI smoke (same rows, same results file).

``QD_BENCH_TINY=1`` (or ``--tiny``) shrinks the workload for CI.

Acceptance: ``serial_cpu_s`` is gated against the committed baseline by
``scripts/bench_compare.py``.
"""

from __future__ import annotations

import os

os.environ.update(
    {
        "OMP_NUM_THREADS": "1",
        "OPENBLAS_NUM_THREADS": "1",
        "MKL_NUM_THREADS": "1",
    }
)

import importlib  # noqa: E402
import statistics  # noqa: E402
import time  # noqa: E402

from _harness import TINY_ENV, BenchResult, emit, tiny_arg_parser  # noqa: E402
from repro.config import RFSConfig  # noqa: E402
from repro.datasets.build import build_synthetic_database  # noqa: E402
from repro.index.rfs import RFSStructure  # noqa: E402

TINY = os.environ.get("QD_BENCH_TINY") == "1"
SEED = 2006
#: Serial builds behind ``serial_cpu_s`` (median reported).
CPU_REPEATS = 5


def _params(tiny: bool) -> dict:
    if tiny:
        return dict(n_images=2_000, n_categories=30)
    return dict(n_images=15_000, n_categories=150)


def _build(features, progress=None) -> RFSStructure:
    return RFSStructure.build(
        features, RFSConfig(), seed=SEED, progress=progress
    )


def _cpu_build(features) -> tuple[float, float, float]:
    """Process CPU seconds of one serial build: whole, tree, reps.

    The tree phase runs from the first ``cluster_tree`` event to the
    last; representative selection from there to the last
    ``representatives`` event.
    """
    marks = {}

    def progress(event) -> None:
        if event.done == event.total:
            marks[event.phase] = time.process_time()

    start = time.process_time()
    _build(features, progress)
    total = time.process_time() - start
    tree = marks["cluster_tree"] - start
    return total, tree, marks["representatives"] - marks["cluster_tree"]


def _exact_rows(features) -> int:
    """Rows one serial build runs through the exact distance kernel."""
    kmeans_module = importlib.import_module("repro.clustering.kmeans")
    kernel = kmeans_module.sq_distances_into
    rows = 0

    def counted(points, *args):
        nonlocal rows
        rows += points.size // points.shape[-1]
        return kernel(points, *args)

    kmeans_module.sq_distances_into = counted
    try:
        _build(features)
    finally:
        kmeans_module.sq_distances_into = kernel
    return rows


def run_build_bench(tiny: bool) -> tuple[list[str], dict]:
    """Run every measurement; returns (report rows, metrics dict)."""
    p = _params(tiny)
    database = build_synthetic_database(
        p["n_images"], n_categories=p["n_categories"], seed=SEED
    )
    features = database.features

    # What the build costs in CPU.  The first build pays the lazy
    # imports, so it is run and not counted.
    serial_rfs = _build(features)
    cpu_s, tree_s, reps_s = zip(
        *(_cpu_build(features) for _ in range(CPU_REPEATS))
    )
    exact_rows = _exact_rows(features)

    scale = "tiny" if tiny else "full"
    rows = [
        f"Build pipeline: {p['n_images']} images, "
        f"{len(serial_rfs.nodes)} nodes ({scale})",
        f"  serial               {statistics.median(cpu_s) * 1000:8.1f} ms"
        f" CPU   (median of {CPU_REPEATS}, "
        f"min {min(cpu_s) * 1000:.1f})",
        f"    tree               {statistics.median(tree_s) * 1000:8.1f} ms",
        f"    representatives    {statistics.median(reps_s) * 1000:8.1f} ms",
        f"  exact-kernel rows    {exact_rows:8d}",
    ]
    return rows, {
        "serial_cpu_s": list(cpu_s),
        "tree_cpu_s": list(tree_s),
        "reps_cpu_s": list(reps_s),
        "exact_rows": exact_rows,
    }


def _bench_result(tiny: bool, metrics: dict) -> BenchResult:
    """The canonical ``BENCH_build_throughput.json`` record."""
    p = _params(tiny)
    result = BenchResult.new("build_throughput", {**p, "tiny": tiny})
    result.record(
        "serial_cpu_s", metrics["serial_cpu_s"], unit="s",
        higher_is_better=False, compare=True,
    )
    for phase in ("tree_cpu_s", "reps_cpu_s"):
        result.record(
            phase, metrics[phase], unit="s", higher_is_better=False,
            compare=False,
        )
    result.record(
        "exact_rows", metrics["exact_rows"], unit="rows",
        higher_is_better=False, compare=False,
    )
    return result


def test_build_throughput(report, benchmark):
    rows, metrics = run_build_bench(TINY)
    report("\n".join(rows))
    _bench_result(TINY, metrics).write(
        os.path.join(os.path.dirname(__file__), "results")
    )
    benchmark.extra_info["serial_cpu_s"] = round(
        statistics.median(metrics["serial_cpu_s"]), 3
    )
    benchmark.pedantic(
        lambda: None, rounds=1, iterations=1
    )  # timing captured manually above; keep the bench in the report


def main(argv=None) -> int:
    parser = tiny_arg_parser(
        "Offline build throughput benchmark (fixture-free entry)"
    )
    args = parser.parse_args(argv)
    tiny = args.tiny or TINY_ENV
    rows, metrics = run_build_bench(tiny)
    emit(rows, _bench_result(tiny, metrics))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
