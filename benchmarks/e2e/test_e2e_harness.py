"""Self-tests of the e2e benchmark harness (no server is started).

Run with ``PYTHONPATH=src python -m pytest benchmarks/e2e -q``; outside
the tier-1 ``testpaths``.
"""

from __future__ import annotations

import json
import sys
import threading
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
REPO = HERE.parents[1]
for path in (HERE, REPO / "src"):
    if str(path) not in sys.path:
        sys.path.insert(0, str(path))

import loadgen  # noqa: E402
import run  # noqa: E402
import stats  # noqa: E402
import tracing  # noqa: E402
import verify  # noqa: E402
import workloads  # noqa: E402
from workloads import WORKLOADS, build_plan, compaction_schedule  # noqa: E402

SPEC = json.loads((REPO / "BENCHMARK.json").read_text())


# -- aggregation -------------------------------------------------------
def _epoch(finalize_ms, steal_s=0.0):
    dialogues = [
        loadgen.DialogueRecord(
            index=i, ops=8, outcome="finalized",
            feedback_s=[0.002] * 3, finalize_s=ms / 1000.0,
            total_s=0.01 + ms / 1000.0,
        )
        for i, ms in enumerate(finalize_ms)
    ]
    return loadgen.Epoch(
        wall_s=1.0, server_cpu_s=0.5, steal_s=steal_s, peak_rss_mb=100.0,
        dialogues=dialogues, writes=[],
    )


def test_run_value_is_the_median_over_epochs_not_the_pooled_sample():
    # one epoch ran in a slow regime: the median ignores it, a pooled
    # percentile would not
    epochs = [_epoch([10.0] * 20), _epoch([10.0] * 20), _epoch([40.0] * 20)]
    summary = loadgen.summarize(epochs)
    assert summary["finalize_p50_ms"] == pytest.approx(10.0)
    assert summary["dialogues_per_s"] == pytest.approx(20.0)
    assert summary["server_cpu_ms_per_dialogue"] == pytest.approx(25.0)
    assert set(summary) == set(run.MEASURED) - {
        "setup_s", "setup_wall_s", "peak_rss_mb"
    }


def test_run_value_rests_on_the_epochs_the_hypervisor_left_alone():
    slow = [_epoch([40.0] * 20, steal_s=0.2) for _ in range(3)]
    calm = [_epoch([10.0] * 20) for _ in range(3)]
    assert loadgen.summarize(slow + calm)["finalize_p50_ms"] == pytest.approx(10.0)


def test_calm_epochs_fall_back_to_the_least_disturbed_half():
    assert stats.calm_epochs([0.0, 0.3, 0.005, 0.0]) == [0, 2, 3]
    # one calm epoch of six is too few: the three with the least steal
    assert stats.calm_epochs([0.2, 0.0, 0.04, 0.5, 0.03, 0.3]) == [1, 2, 4]
    # a run on a loaded host still reports, from all it has
    assert stats.calm_epochs([0.4, 0.2]) == [0, 1]
    assert stats.calm_epochs([0.4, 0.2, 0.3, 0.1, 0.5]) == [1, 2, 3]


def test_median_over_epochs_skips_epochs_without_the_metric():
    merged = stats.median_over_epochs(
        [{"a": 1.0, "b": 5.0}, {"a": 3.0}, {"a": 2.0, "b": 7.0}]
    )
    assert merged == {"a": 2.0, "b": 6.0}


def test_failed_and_abandoned_dialogues_miss_the_latency_metrics():
    ok = loadgen.DialogueRecord(
        index=0, ops=8, outcome="finalized", feedback_s=[0.001] * 3,
        finalize_s=0.004, total_s=0.008,
    )
    failed = loadgen.DialogueRecord(
        index=1, ops=3, failed=1, feedback_s=[9.0], total_s=9.0
    )
    abandoned = loadgen.DialogueRecord(
        index=2, ops=8, outcome="abandoned", feedback_s=[0.003] * 3,
        total_s=0.5,
    )
    metrics = loadgen.Epoch(
        2.0, 0.1, 0.0, 50.0, [ok, failed, abandoned], []
    ).metrics()
    assert metrics["dialogues_per_s"] == pytest.approx(1.0)  # 2 done / 2 s
    assert metrics["dialogue_p50_ms"] == pytest.approx(8.0)  # finalized only
    assert metrics["feedback_p90_ms"] < 4.0  # the failed round is not in


def test_percentile_matches_numpy():
    rng = np.random.default_rng(0)
    values = list(rng.random(37))
    for q in (0.0, 50.0, 90.0, 99.0, 100.0):
        assert stats.percentile(values, q) == pytest.approx(
            float(np.percentile(values, q))
        )


@pytest.mark.parametrize(
    "n, expected",
    [(19, None), (20, 50.0), (40, 75.0), (99, 75.0), (100, 90.0),
     (199, 90.0), (200, 95.0), (1000, 99.0)],
)
def test_tail_percentile_keeps_ten_samples_beyond(n, expected):
    assert stats.tail_percentile(n) == expected


def test_an_epoch_knows_whether_it_supports_the_feedback_tail():
    # p90 of feedback rounds needs 100 of them, three per dialogue
    assert _epoch([10.0] * 34).supports_tail()
    assert not _epoch([10.0] * 33).supports_tail()


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_every_epoch_is_sized_for_the_feedback_tail(name):
    assert _epoch([10.0] * WORKLOADS[name].epoch_dialogues).supports_tail()


def test_epoch_count_is_the_workloads_own_at_the_drivers_run_seconds():
    for workload in WORKLOADS.values():
        assert run.epoch_count(workload, SPEC["run_seconds"]) == workload.epochs
    sqlite = WORKLOADS["dialogue_sqlite"]
    assert run.epoch_count(sqlite, 2 * SPEC["run_seconds"]) == 2 * sqlite.epochs
    assert run.epoch_count(sqlite, 0.01) == 1


# -- span arithmetic ---------------------------------------------------
def _span(id, name, start, end, parent=None, req=1):
    return tracing.Span(id=id, name=name, start=start, end=end,
                        parent=parent, req=req)


def test_self_time_subtracts_the_union_of_child_intervals():
    spans = [
        _span(0, "parent", 0.0, 10.0),
        _span(1, "a", 1.0, 3.0, parent=0),
        _span(2, "b", 2.0, 5.0, parent=0),   # overlaps a (other thread)
        _span(3, "c", 7.0, 8.0, parent=0),
        _span(4, "late", 9.0, 12.0, parent=0),  # clipped to the parent
        _span(5, "grandchild", 2.5, 2.75, parent=1),
    ]
    own = tracing.self_times(spans)
    assert own[0] == pytest.approx(10.0 - (4.0 + 1.0 + 1.0))
    assert own[1] == pytest.approx(2.0 - 0.25)
    assert own[5] == pytest.approx(0.25)
    assert tracing.covered([(0, 1), (0.5, 2), (3, 4)]) == pytest.approx(3.0)


def test_recorder_links_work_that_hops_threads_to_the_handoff_span():
    rec = tracing.Recorder()
    rec.current_req = 7
    outer = rec.open("serve.server.request", handoff=True)

    def worker():
        span = rec.open("core.clientserver.handle", handoff=False)
        inner = rec.open("sessionstore.get", handoff=False)
        rec.close(inner, False)
        rec.close(span, False)

    thread = threading.Thread(target=worker)
    thread.start()
    thread.join(timeout=5)
    assert not thread.is_alive()
    rec.close(outer, True)
    after = rec.open("serve.tcp.encode", handoff=False)
    rec.close(after, False)
    by_name = {s.name: s for s in rec.spans}
    assert by_name["core.clientserver.handle"].parent == outer.id
    assert by_name["sessionstore.get"].parent == (
        by_name["core.clientserver.handle"].id
    )
    assert by_name["serve.tcp.encode"].parent is None
    assert {s.req for s in rec.spans} == {7}


# -- plans -------------------------------------------------------------
FEATURES = np.random.default_rng(1).normal(size=(500, 37))


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_plan_is_a_function_of_the_seed(name):
    workload = WORKLOADS[name]
    first = build_plan(workload, 11, 400, FEATURES)
    assert first == build_plan(workload, 11, 400, FEATURES)
    assert first[:150] == build_plan(workload, 11, 150, FEATURES)
    other = build_plan(workload, 12, 400, FEATURES)
    assert [(d.category, d.session_seed) for d in first] != [
        (d.category, d.session_seed) for d in other
    ]


def test_sharded_workload_replays_the_single_node_interests():
    a = build_plan(WORKLOADS["scan_wide"], 5, 300)
    b = build_plan(WORKLOADS["scan_wide_2shard"], 5, 300)
    assert a == b


def test_distinct_interests_visit_every_category_once_per_round():
    workload = WORKLOADS["scan_wide"]
    # an epoch is a whole fraction of a round, the warm-up one epoch
    assert workloads.N_CATEGORIES % workload.epoch_dialogues == 0
    assert workload.warmup_dialogues == workload.epoch_dialogues
    plan = build_plan(workload, 3, 2 * workloads.N_CATEGORIES)
    for start in (0, workloads.N_CATEGORIES):
        block = plan[start : start + workloads.N_CATEGORIES]
        assert sorted(d.category for d in block) == list(
            range(workloads.N_CATEGORIES)
        )
    assert len({d.session_seed for d in plan}) == len(plan)


def test_zipf_interests_repeat_and_come_from_one_pool_whatever_the_seed():
    workload = WORKLOADS["mixed_rw_cached"]
    pools = []
    for seed in (1, 2):
        plan = build_plan(workload, seed, 2000, FEATURES)
        interests = [(d.category, d.session_seed) for d in plan]
        pools.append(set(interests))
        assert len(pools[-1]) <= workloads.INTEREST_POOL
        top = max(interests.count(i) for i in pools[-1])
        assert top > 0.1 * len(plan)  # the head interest dominates
    assert len(pools[0] | pools[1]) <= workloads.INTEREST_POOL


def test_every_epoch_of_zipf_traffic_has_the_distributions_proportions():
    workload = WORKLOADS["mixed_rw_cached"]
    size = workload.epoch_dialogues
    assert size % workloads.ZIPF_WINDOW == 0
    assert workload.warmup_dialogues % workloads.ZIPF_WINDOW == 0
    plan = build_plan(workload, 9, workload.warmup_dialogues + 8 * size, FEATURES)
    interests = [(d.category, d.session_seed) for d in plan]
    head = max(set(interests), key=interests.count)
    expected = size * workloads.zipf_weights(workloads.INTEREST_POOL)[0]
    for e in range(8):
        start = workload.warmup_dialogues + e * size
        assert abs(interests[start : start + size].count(head) - expected) < 2


def test_writes_follow_the_cycle_after_every_other_dialogue():
    plan = build_plan(WORKLOADS["mixed_rw_cached"], 4, 64, FEATURES)
    assert all(d.write is None for d in plan if d.index % 2 == 1)
    kinds = [d.write.kind for d in plan if d.index % 2 == 0]
    assert kinds[:8] == list(workloads.WRITE_CYCLE) * 2
    removed = [d.write.image_id for d in plan
               if d.write and d.write.kind == "remove_original"]
    assert len(set(removed)) == len(removed)
    vectors = [d.write.vector for d in plan
               if d.write and d.write.kind == "insert"]
    assert all(len(v) == FEATURES.shape[1] for v in vectors)


def test_every_measured_epoch_holds_exactly_one_compaction_mid_epoch():
    workload = WORKLOADS["mixed_rw_cached"]
    warmup_writes = workload.warmup_dialogues // 2
    epoch_writes = workload.epoch_dialogues // 2
    n_epochs = 12
    triggers = compaction_schedule(
        workload.compact_threshold, warmup_writes + n_epochs * epoch_writes
    )
    assert not [t for t in triggers if t <= warmup_writes]
    for e in range(n_epochs):
        start = warmup_writes + e * epoch_writes
        inside = [t - start for t in triggers if start < t <= start + epoch_writes]
        assert inside == [epoch_writes // 2]


def test_compaction_schedule_counts_folded_inserts_as_tombstones():
    # first generation: remove-inserted of a fresh delta row is free
    assert compaction_schedule(3, 4) == [4]
    # observed on the real GenerationController at threshold 24
    assert compaction_schedule(24, 80) == [32, 56, 80]


# -- dialogue replay and verification ----------------------------------
class FakeServer:
    """Answers the seven ops from a script, no sockets."""

    def __init__(self, shown, fail_on=None):
        self.shown = shown
        self.fail_on = fail_on
        self.log = []

    def call(self, payload):
        self.log.append(payload)
        op = payload["op"]
        status = "shed" if op == self.fail_on else "ok"
        value = {
            "open": "sid", "display": self.shown, "submit": 1,
            "finalize": {"groups": [{"items": [[5, 0.1], [9, 0.2]]}],
                         "rounds_used": 3},
            "abandon": True, "insert": 15000, "remove": True,
        }[op]
        return {"status": status, "value": value}, 0.001


def test_replay_marks_the_target_category_and_finalizes():
    labels = np.array([0, 1, 1, 1, 1, 1, 1, 1, 0, 1])
    server = FakeServer(shown=[0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 15000])
    dialogue = workloads.Dialogue(index=0, category=1, session_seed=3, k=60)
    record = loadgen.replay_dialogue(
        server.call, dialogue, labels, keep_ids=True
    )
    assert record.outcome == "finalized" and record.ops == 8
    submits = [p for p in server.log if p["op"] == "submit"]
    assert [p["relevant_ids"] for p in submits] == [[1, 2, 3, 4, 5, 6]] * 3
    assert record.result_ids == [5, 9] and record.value is not None
    assert record.total_s == pytest.approx(0.008)


def test_replay_abandons_when_nothing_was_marked_and_stops_on_failure():
    labels = np.zeros(10, dtype=int)
    dialogue = workloads.Dialogue(index=1, category=1, session_seed=3, k=60)
    quiet = FakeServer(shown=[0, 1, 2])
    record = loadgen.replay_dialogue(quiet.call, dialogue, labels)
    assert record.outcome == "abandoned"
    assert quiet.log[-1]["op"] == "abandon"
    shedding = FakeServer(shown=[0, 1, 2], fail_on="submit")
    record = loadgen.replay_dialogue(shedding.call, dialogue, labels)
    assert (record.outcome, record.failed, record.ops) == ("failed", 1, 3)


def _finalized(index, sent, ids):
    return loadgen.DialogueRecord(
        index=index, ops=8, outcome="finalized", finalize_sent=sent,
        result_ids=ids,
    )


def _write_history():
    # threshold 3 on the write cycle compacts at the 4th write
    return [
        loadgen.WriteRecord("insert", 100, "ok", 0.001, acked=1.0),
        loadgen.WriteRecord("insert", 101, "ok", 0.001, acked=2.0),
        loadgen.WriteRecord("remove_inserted", 100, "ok", 0.001, acked=3.0),
        loadgen.WriteRecord("remove_original", 7, "ok", 0.9, acked=4.0),
    ]


def test_mixed_invariants_hold_on_a_clean_history():
    records = [
        _finalized(0, 2.5, [100, 7, 3]),   # before either remove
        _finalized(1, 5.0, [101, 3]),
    ]
    assert verify.verify_mixed_invariants(
        records, _write_history(), n_images=100, k=3, compact_threshold=3
    ) == ([], 1)


def test_a_removed_id_may_not_come_back_once_the_remove_is_acknowledged():
    # id 100 was removed at t=3
    problems, _ = verify.verify_mixed_invariants(
        [_finalized(2, 3.5, [100, 3])], _write_history(),
        n_images=100, k=3, compact_threshold=3,
    )
    assert "removed id(s) [100]" in problems[0]


def test_the_simulated_compactions_must_be_the_slowest_writes():
    history = _write_history()
    assert verify.slowest_writes(history, 1) == [4]
    assert verify.slowest_writes(history, 0) == []
    # the server compacted one write early: the plan's simulation is
    # off, and the run must fail rather than trust it
    moved = history[:2] + [
        loadgen.WriteRecord("remove_inserted", 100, "ok", 0.9, acked=3.0),
        loadgen.WriteRecord("remove_original", 7, "ok", 0.001, acked=4.0),
    ]
    problems, confirmed = verify.verify_mixed_invariants(
        [], moved, n_images=100, k=3, compact_threshold=3
    )
    assert confirmed == 1
    assert "slowest writes are [3]" in problems[0]
    # a stalled plain write does not pass for a compaction
    stalled = [
        loadgen.WriteRecord(w.kind, w.image_id, "ok", s, w.acked)
        for w, s in zip(history, (0.2, 0.001, 0.001, 0.9))
    ]
    assert verify.verify_mixed_invariants(
        [], stalled, n_images=100, k=3, compact_threshold=3
    ) == ([], 1)


def test_mixed_invariants_catch_gaps_failures_and_oversized_results():
    check = dict(n_images=100, compact_threshold=3)
    assert "items for k=1" in verify.verify_mixed_invariants(
        [_finalized(3, 0.5, [1, 2])], _write_history(), k=1, **check
    )[0][0]
    gap = _write_history()[:1] + [
        loadgen.WriteRecord("insert", 105, "ok", 0.0, 2.0)
    ]
    assert "not consecutive" in verify.verify_mixed_invariants(
        [], gap, k=3, **check
    )[0][0]
    shed = [loadgen.WriteRecord("insert", 100, "shed", 0.0, 1.0)]
    assert "write(s) were not ok" in verify.verify_mixed_invariants(
        [], shed, k=3, **check
    )[0][0]


# -- the contract file and the layer table -----------------------------
def test_the_traced_run_of_the_write_workload_reaches_a_compaction():
    workload = WORKLOADS["mixed_rw_cached"]
    traced_writes = (10 + workload.trace_dialogues) // 2
    assert len(compaction_schedule(workload.compact_threshold, traced_writes)) == 1


def test_benchmark_json_names_the_harness_workloads_and_metrics():
    # the driver runs two of the four (README, "Deviations")
    assert [w["name"] for w in SPEC["workloads"]] == [
        "dialogue_sqlite", "scan_wide"
    ]
    assert {w["name"] for w in SPEC["workloads"]} <= set(WORKLOADS)
    assert SPEC["paths"] == ["benchmarks/e2e"]
    e2e = {m["name"]: m for m in SPEC["end_to_end"]}
    assert e2e["setup_s"]["unit"] == "s"
    assert {n: m["unit"] for n, m in e2e.items()}.items() <= run.MEASURED.items()
    assert all(0.0 < m["bound"] <= 0.25 for m in e2e.values())


def test_layer_map_covers_exactly_the_per_layer_metrics():
    layers = json.loads((HERE / "layers.json").read_text())["layers"]
    mapped = [name for layer in layers for name in layer["metrics"]]
    assert sorted(mapped) == sorted(m["name"] for m in SPEC["per_layer"])
    for layer in layers:
        # tails of dialogues and finalizes are pooled over the run
        assert set(layer["feeds"]) <= set(run.MEASURED) | {
            "dialogue_pooled_p90_ms", "finalize_pooled_p90_ms"
        }
        assert set(layer["workloads"]) <= set(WORKLOADS)


def _tiny_replay():
    spans = [
        _span(0, tracing.DECODE_SPAN, 0.00, 0.01),
        _span(1, "serve.tcp.core_request", 0.01, 0.09),
        _span(2, "serve.server.request", 0.02, 0.08, parent=1),
        _span(3, "store.kernel.point", 0.03, 0.05, parent=2),
        _span(4, "serve.tcp.encode", 0.09, 0.095),
    ]
    spans[2].attrs.update(queue_wait_s=0.001, service_s=0.05, status="ok")
    spans[3].attrs.update(rows=100, bytes=100 * 37 * 4)
    spans[4].attrs.update(bytes=999)
    request = tracing.Request(1, "finalize", 0.0, 0.1, "ok", True)
    record = loadgen.DialogueRecord(index=0, outcome="finalized")
    return tracing.Replay([request], [record], spans, None)


def test_layer_table_has_every_metric_benchmark_json_names():
    run = _tiny_replay()
    table = tracing.LayerMetrics(run, run, missing=[]).compute()
    assert set(table) == {m["name"] for m in SPEC["per_layer"]}
    assert table["serve.tcp.response_bytes"] == 1000
    assert table["store.rows_scanned_per_finalize"] == 100
    assert table["store.kernel_ns_per_row"] == pytest.approx(2e5)
    assert table["serve.tcp.wire_us"] == pytest.approx(2e4)
    assert table["trace.unattributed_share"] == pytest.approx(5.0)
    assert table["trace.overhead_share"] == pytest.approx(0.0)
    assert table["cache.get_us"] == 0.0  # wrapped, never called here


def test_a_vanished_function_nulls_its_metrics_and_nothing_else():
    run = _tiny_replay()
    table = tracing.LayerMetrics(
        run, run, missing=["cache.get", "store.kernel.point"]
    ).compute()
    assert table["cache.get_us"] is None
    assert table["cache.hit_share"] is None
    assert table["store.kernel_ns_per_row"] is None
    assert table["cache.put_us"] == 0.0
    assert table["serve.tcp.decode_us"] == pytest.approx(1e4)


def test_instrumentation_degrades_on_a_missing_target_and_restores(monkeypatch):
    from repro.serve.server import QDServer
    from repro.store import kernels

    original_request = QDServer.__dict__["request"]
    original_kernel = kernels.point_distances
    gone = tracing.Target("index.gone", "repro.index.rfs", "RFSStructure.nope")
    monkeypatch.setattr(tracing, "TARGETS", tracing.TARGETS + (gone,))
    recorder = tracing.Recorder()
    with tracing.Instrumentation(recorder) as installed:
        assert installed.missing == ["index.gone"]
        assert "RFSStructure.nope" in installed.warnings[0]
        assert QDServer.__dict__["request"] is not original_request
        kernels.point_distances(np.ones((4, 3), dtype=np.float32), np.zeros(3))
    assert QDServer.__dict__["request"] is original_request
    assert kernels.point_distances is original_kernel
    (span,) = [s for s in recorder.spans if s.name == "store.kernel.point"]
    assert span.attrs["rows"] == 4 and span.attrs["bytes"] == 4 * 3 * 4
