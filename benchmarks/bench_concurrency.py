"""Extension — concurrent-user server capacity (§5.2.2 / §6 claims).

"The results indicate that the QD approach is very time efficient,
suitable for very large databases with many concurrent users" (§5.2.2)
and the §6 claim that client-side feedback leaves the server "mainly to
retrieve the final query results for the small localized queries".

This bench replays a Zipf-skewed 60-session workload against the
paper-scale database, charging each deployment model's *server-side*
work: QD pays only the final localized k-NNs; a traditional deployment
pays one global k-NN per feedback round per session.
"""

from repro.eval.workload import (
    WorkloadSpec,
    generate_workload,
    simulate_concurrent_users,
)


def test_concurrent_user_capacity(benchmark, paper_engine, report):
    engine = paper_engine
    workload = generate_workload(
        engine.database,
        WorkloadSpec(n_queries=60, max_targets=3, zipf_s=1.0),
        seed=2006,
    )

    result = benchmark.pedantic(
        lambda: simulate_concurrent_users(
            engine, workload, seed=2006
        ),
        rounds=1,
        iterations=1,
    )
    report(result.format())
    benchmark.extra_info["throughput_multiplier"] = round(
        result.throughput_multiplier, 1
    )
    benchmark.extra_info["sessions"] = result.n_sessions

    assert result.n_sessions >= 40  # most workload queries complete
    # The server sustains several times more QD sessions.
    assert result.throughput_multiplier > 3
    assert (
        result.qd_server_page_reads
        < result.traditional_server_page_reads
    )
