"""Ablation — RFS node capacity (§4: max 100 / min 70 → a 3-level tree).

The node capacity controls the breadth/depth trade-off of the RFS
structure: small nodes give deep trees (more feedback rounds needed to
reach pure leaves), huge nodes give a flat tree (leaves too coarse for
localized queries).  The sweep reports tree shape and retrieval quality
per capacity, with the paper's max of 100 as the reference point.  The
paper's minimum of 70 is not swept: binary bisection cannot honour it,
and every built node is bounded below by 40 % of the max instead
(:func:`repro.index.rstar.split_min_entries`).
"""

import numpy as np

from repro.config import RFSConfig
from repro.core.engine import QueryDecompositionEngine
from repro.datasets.queryset import get_query
from repro.eval.protocol import run_qd_session
from repro.eval.reporting import format_table

CAPACITIES = (30, 60, 100, 200)
QUERIES = ("bird", "computer", "rose")


def test_ablation_node_capacity(benchmark, paper_db, report):
    def measure():
        rows = []
        for max_entries in CAPACITIES:
            engine = QueryDecompositionEngine.build(
                paper_db,
                RFSConfig(node_max_entries=max_entries),
                seed=2006,
            )
            height = engine.rfs.height
            n_leaves = sum(
                1 for n in engine.rfs.iter_nodes() if n.is_leaf
            )
            precisions, gtirs = [], []
            for name in QUERIES:
                result, _ = run_qd_session(
                    engine, get_query(name), seed=41,
                    rounds=max(3, height),
                )
                precisions.append(result.stats["precision"])
                gtirs.append(result.stats["gtir"])
            rows.append(
                (
                    max_entries,
                    height,
                    n_leaves,
                    float(np.mean(precisions)),
                    float(np.mean(gtirs)),
                )
            )
        return rows

    rows = benchmark.pedantic(measure, rounds=1, iterations=1)
    report(
        format_table(
            ["max entries", "levels", "leaves", "precision", "GTIR"],
            rows,
            title="Ablation: RFS node capacity (paper: max 100, 3 levels)",
        )
    )
    benchmark.extra_info["rows"] = rows

    by_capacity = {r[0]: r for r in rows}
    # The paper's configuration yields a 3-level tree at 15k images.
    assert by_capacity[100][1] == 3
    # Quality stays strong at the paper's setting.
    assert by_capacity[100][4] > 0.85
