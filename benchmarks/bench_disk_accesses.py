"""§5.2.2 — simulated disk-access accounting.

The paper argues the QD/RFS approach is I/O-light: processing a round of
relevance feedback reads one tree node per active subquery (less when
several relevant representatives share a node), and each localized k-NN
computation usually reads a single leaf, expanding to parents only for
boundary queries.  This bench measures the page reads of full QD sessions
on the paper-scale database (result size 100 — a screenful-scale result,
as in the paper's efficiency study with simulated queries) and contrasts
them with the cost of traditional relevance feedback, which performs a
global k-NN over the whole index every round.
"""

import numpy as np

from repro.datasets.queryset import TABLE1_QUERIES
from repro.eval.protocol import run_qd_session
from repro.eval.reporting import format_table

RESULT_K = 100


def test_disk_accesses(benchmark, paper_engine, report):
    engine = paper_engine
    database = engine.database
    rfs = engine.rfs

    def measure():
        rows = []
        for query in TABLE1_QUERIES:
            result, _ = run_qd_session(
                engine, query, k=RESULT_K, seed=7
            )
            # Per-session disk accounting is propagated into the result
            # stats by the engine (no reaching into engine.io needed).
            rows.append(
                (
                    query.name,
                    int(result.stats.get("disk_reads_feedback", 0)),
                    int(result.stats.get("disk_reads_localized_knn", 0)),
                    result.n_groups,
                )
            )
        return rows

    rows = benchmark.pedantic(measure, rounds=1, iterations=1)

    # Cost of ONE global k-NN over the engine's own R*-tree — what a
    # traditional relevance-feedback technique pays every round.  The
    # logical count is every leaf page the search reads, so a page the
    # buffer still holds from the sessions above is counted too.
    logical = rfs.io.per_category_logical
    before = logical.get("localized_knn", 0)
    rfs.localized_knn(rfs.root, database.features[0], RESULT_K)
    global_knn_reads = logical.get("localized_knn", 0) - before

    report(
        format_table(
            ["query", "feedback reads (3 rounds)",
             "localized k-NN reads", "subqueries"],
            rows,
            title=(
                "Disk accesses per QD session, k=100 (paper §5.2.2)"
            ),
        )
        + f"\none global k-NN over the R*-tree reads {global_knn_reads} "
        "leaf pages; "
        "traditional relevance feedback pays that every round "
        f"(3 rounds = {3 * global_knn_reads} pages)"
    )
    feedback_reads = [r[1] for r in rows]
    knn_reads = [r[2] for r in rows]
    reads_per_subquery = [r[2] / max(1, r[3]) for r in rows]
    benchmark.extra_info["mean_feedback_reads"] = float(
        np.mean(feedback_reads)
    )
    benchmark.extra_info["mean_localized_knn_reads"] = float(
        np.mean(knn_reads)
    )
    benchmark.extra_info["mean_reads_per_subquery"] = float(
        np.mean(reads_per_subquery)
    )
    benchmark.extra_info["global_knn_reads"] = global_knn_reads

    # Paper shape: each localized k-NN *usually* reads about one page
    # (boundary queries legitimately expand — §3.3 — so the tail is
    # heavier than the median).
    assert float(np.median(reads_per_subquery)) <= 2.0
    # ... feedback processing touches a handful of nodes per session ...
    n_nodes = sum(1 for _ in rfs.iter_nodes())
    assert max(feedback_reads) < n_nodes / 4
    # ... and a whole QD session costs less I/O than the three global
    # k-NN rounds traditional relevance feedback would execute.
    total_per_session = np.array(feedback_reads) + np.array(knn_reads)
    assert float(np.mean(total_per_session)) < 3 * global_knn_reads
