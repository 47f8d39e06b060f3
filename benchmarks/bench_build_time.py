"""Extension — index construction cost vs database size.

The paper reports query/feedback time (Figures 10–11) but not the
offline RFS construction cost.  This bench sweeps database sizes and
hierarchy builders (the R*-tree partition and hierarchical k-means) and
reports build time plus representative-selection time — the
operational cost a deployment pays per reindex.
"""

import time

import numpy as np

from repro.config import RFSConfig
from repro.datasets.build import build_synthetic_database
from repro.eval.reporting import format_table
from repro.index.rfs import RFSStructure

DB_SIZES = (2_000, 8_000, 15_000)


def test_build_time(benchmark, report):
    def measure():
        rows = []
        for size in DB_SIZES:
            database = build_synthetic_database(size, seed=5)
            feats = database.features
            start = time.perf_counter()
            RFSStructure.build(feats, RFSConfig(), seed=5)
            rfs_time = time.perf_counter() - start

            start = time.perf_counter()
            RFSStructure.build(
                feats, RFSConfig(), seed=5, method="hkmeans"
            )
            hk_time = time.perf_counter() - start
            rows.append((size, rfs_time, hk_time))
        return rows

    rows = benchmark.pedantic(measure, rounds=1, iterations=1)
    report(
        format_table(
            ["db size", "RFS (r*-bulk + reps) s",
             "RFS (hkmeans + reps) s"],
            rows,
            title="Index construction time vs database size",
            float_format="{:.3f}",
        )
    )
    benchmark.extra_info["rows"] = [
        (size, round(a, 3), round(b, 3)) for size, a, b in rows
    ]

    times = np.array([r[1] for r in rows], dtype=float)
    sizes = np.array([r[0] for r in rows], dtype=float)
    # Build cost grows with size but stays far from quadratic.
    assert times[-1] > times[0]
    growth = (times[-1] / times[0]) / (sizes[-1] / sizes[0])
    assert growth < 5.0
    # Construction at paper scale stays in interactive territory.
    assert times[-1] < 60.0
