"""Observability layer: tracing, metrics, exporters, summaries.

Covers the obs contract end to end: span nesting and timing, the
zero-overhead no-op defaults, JSONL round-trips through
``repro.obs.summarize``, Prometheus text exposition, and — on a real
scripted session — that tracing changes nothing about the rankings and
that the no-op instrumentation costs well under 5 % of a session.
"""

import json
import re
import time

import numpy as np
import pytest

from repro import get_query, obs
from repro.eval import SimulatedUser
from repro.obs.metrics import (
    BUCKET_BOUNDS,
    NULL_METRICS,
    RESERVOIR_CAP,
    Histogram,
    get_metrics,
    instrument_key,
)
from repro.obs.trace import _NULL_SPAN, NULL_TRACER, get_tracer


class TestSpanNesting:
    def test_spans_nest_and_time(self):
        tracer = obs.Tracer()
        with tracer.span("outer", k=10) as outer:
            time.sleep(0.002)
            with tracer.span("inner") as inner:
                time.sleep(0.002)
                inner.set(rows=3)
        assert tracer.spans == [outer]
        assert outer.children == [inner]
        assert inner.children == []
        assert outer.attributes == {"k": 10}
        assert inner.attributes == {"rows": 3}
        assert inner.duration > 0.0
        assert outer.duration >= inner.duration
        assert outer.start > 0.0

    def test_siblings_attach_in_completion_order(self):
        tracer = obs.Tracer()
        with tracer.span("root"):
            with tracer.span("a"):
                pass
            with tracer.span("b"):
                pass
        (root,) = tracer.spans
        assert [c.name for c in root.children] == ["a", "b"]

    def test_current_tracks_innermost_open_span(self):
        tracer = obs.Tracer()
        assert tracer.current is None
        with tracer.span("outer") as outer:
            assert tracer.current is outer
            with tracer.span("inner") as inner:
                assert tracer.current is inner
            assert tracer.current is outer
        assert tracer.current is None

    def test_events_are_zero_duration_children(self):
        tracer = obs.Tracer()
        with tracer.span("round") as span:
            span.event("subquery_split", parent=1, child=2)
            tracer.event("boundary_expansion", levels=1)
        (root,) = tracer.spans
        names = [c.name for c in root.children]
        assert names == ["subquery_split", "boundary_expansion"]
        for child in root.children:
            assert child.duration == 0.0
            assert child.start > 0.0

    def test_event_without_open_span_becomes_root(self):
        tracer = obs.Tracer()
        tracer.event("orphan", x=1)
        assert [s.name for s in tracer.spans] == ["orphan"]

    def test_to_dict_round_trips_structure(self):
        tracer = obs.Tracer()
        with tracer.span("session", k=5) as root:
            with tracer.span("round", round=1):
                pass
        d = root.to_dict()
        assert d["name"] == "session"
        assert d["attributes"] == {"k": 5}
        assert [c["name"] for c in d["children"]] == ["round"]

    def test_use_tracer_installs_and_restores(self):
        tracer = obs.Tracer()
        assert get_tracer() is NULL_TRACER
        with obs.use_tracer(tracer):
            assert get_tracer() is tracer
        assert get_tracer() is NULL_TRACER

    def test_set_tracer_none_restores_noop(self):
        previous = obs.set_tracer(obs.Tracer())
        assert previous is NULL_TRACER
        obs.set_tracer(None)
        assert get_tracer() is NULL_TRACER


class TestNoOpDefaults:
    def test_null_tracer_returns_shared_span(self):
        span = NULL_TRACER.span("session", k=100)
        assert span is _NULL_SPAN
        assert NULL_TRACER.event("x") is _NULL_SPAN
        with span as entered:
            assert entered is span
            assert span.set(a=1) is span
            assert span.event("y") is span
        assert NULL_TRACER.spans == []
        assert not NULL_TRACER.enabled

    def test_null_metrics_record_nothing(self):
        counter = NULL_METRICS.counter("qd_sessions_total")
        counter.inc(5)
        assert counter.value == 0.0
        hist = NULL_METRICS.histogram("qd_session_rounds")
        hist.observe(3)
        assert hist.count == 0
        assert hist.percentile(95) == 0.0
        NULL_METRICS.gauge("g").set(7)
        assert not NULL_METRICS.enabled

    def test_untraced_session_emits_nothing(self, engine):
        assert get_tracer() is NULL_TRACER
        assert get_metrics() is NULL_METRICS
        user = SimulatedUser(engine.database, get_query("rose"), seed=3)
        engine.run_scripted(user.mark, k=20, seed=3)
        assert NULL_TRACER.spans == []
        assert NULL_TRACER.span("x").children == []

    def test_noop_overhead_under_5_percent(self, engine):
        """Estimated total no-op instrumentation cost << session cost.

        A direct wall-clock A/B between traced and untraced runs is too
        flaky for CI, so bound the overhead analytically: count the
        spans/events a traced session emits, microbenchmark the per-call
        cost of the no-op path, and compare the product against the
        measured untraced session duration.

        Both sides are medians of samples on the same sub-millisecond
        timescale.  One long no-op loop would be time-sliced on a busy
        host while each short session runs unpreempted, inflating the
        ratio by the host's load rather than the code's cost.
        """
        db = engine.database
        query = get_query("rose")

        tracer = obs.Tracer()
        with obs.use_tracer(tracer):
            user = SimulatedUser(db, query, seed=5)
            engine.run_scripted(user.mark, k=20, seed=5)
        n_calls = sum(
            1 for _ in obs.iter_spans(tracer.to_dicts())
        )
        assert n_calls > 0

        samples = []
        for _ in range(11):
            t0 = time.perf_counter()
            user = SimulatedUser(db, query, seed=5)
            engine.run_scripted(user.mark, k=20, seed=5)
            samples.append(time.perf_counter() - t0)
        session_s = sorted(samples)[len(samples) // 2]

        reps = 500
        chunks = []
        for _ in range(100):
            t0 = time.perf_counter()
            for _ in range(reps):
                with NULL_TRACER.span(
                    "round", round=1, phase="iteration"
                ) as s:
                    s.set(shown=8, marked=2)
            chunks.append((time.perf_counter() - t0) / reps)
        per_call_s = sorted(chunks)[len(chunks) // 2]

        # 2x margin on the span count covers the metrics sites, whose
        # no-op calls are cheaper than a full span with-block.
        overhead_s = per_call_s * n_calls * 2
        assert overhead_s < 0.05 * session_s

    def test_tracing_does_not_change_rankings(self, engine):
        db = engine.database
        query = get_query("bird")

        user = SimulatedUser(db, query, seed=11)
        plain = engine.run_scripted(user.mark, k=40, seed=11)

        tracer = obs.Tracer()
        registry = obs.MetricsRegistry()
        with obs.use_tracer(tracer), obs.use_metrics(registry):
            user = SimulatedUser(db, query, seed=11)
            traced = engine.run_scripted(user.mark, k=40, seed=11)

        assert traced.flatten() == plain.flatten()
        assert [g.items.ids() for g in traced.groups] == [
            g.items.ids() for g in plain.groups
        ]


class TestMetricsRegistry:
    def test_counter_gauge_histogram(self):
        registry = obs.MetricsRegistry()
        counter = registry.counter("c", "help text")
        counter.inc()
        counter.inc(2.5)
        assert counter.value == 3.5
        assert registry.counter("c") is counter  # lazy get-or-create

        gauge = registry.gauge("g")
        gauge.set(4)
        gauge.inc(-1)
        assert gauge.value == 3.0

        hist = registry.histogram("h")
        for v in (1, 2, 3, 4):
            hist.observe(v)
        assert hist.count == 4
        assert hist.sum == 10.0
        assert hist.mean() == 2.5
        assert hist.percentile(0) == 1.0
        assert hist.percentile(100) == 4.0

    def test_counter_rejects_negative_increment(self):
        counter = obs.MetricsRegistry().counter("c")
        with pytest.raises(ValueError, match="negative"):
            counter.inc(-1)

    def test_snapshot_flattens_all_instruments(self):
        registry = obs.MetricsRegistry()
        registry.counter("c").inc(2)
        registry.gauge("g").set(7)
        registry.histogram("h").observe(5)
        snap = registry.snapshot()
        assert snap["c"] == 2.0
        assert snap["g"] == 7.0
        assert snap["h_count"] == 1.0
        assert snap["h_sum"] == 5.0
        assert snap["h_p95"] == 5.0

    def test_use_metrics_installs_and_restores(self):
        registry = obs.MetricsRegistry()
        assert get_metrics() is NULL_METRICS
        with obs.use_metrics(registry):
            assert get_metrics() is registry
        assert get_metrics() is NULL_METRICS


@pytest.fixture(scope="module")
def traced_session(engine):
    """One traced + metered scripted session over the shared engine."""
    tracer = obs.Tracer()
    registry = obs.MetricsRegistry()
    with obs.use_tracer(tracer), obs.use_metrics(registry):
        user = SimulatedUser(engine.database, get_query("rose"), seed=7)
        result = engine.run_scripted(user.mark, k=30, seed=7)
    return tracer, registry, result


class TestTracedSession:
    def test_session_span_shape(self, traced_session):
        tracer, _, result = traced_session
        assert len(tracer.spans) == 1
        root = tracer.spans[0]
        assert root.name == "session"
        rounds = [c for c in root.children if c.name == "round"]
        assert len(rounds) == result.rounds_used
        assert rounds[0].attributes["phase"] == "initial"
        assert all(
            r.attributes["phase"] == "iteration" for r in rounds[1:]
        )
        finals = [c for c in root.children if c.name == "final_round"]
        assert len(finals) == 1
        assert root.attributes["disk_physical_reads"] >= 0
        assert (
            root.attributes["disk_logical_reads"]
            >= root.attributes["disk_physical_reads"]
        )

    def test_final_round_contains_merge_decisions(self, traced_session):
        tracer, _, result = traced_session
        summary = obs.summarize(tracer)
        assert summary.n_sessions == 1
        assert summary.n_rounds == result.rounds_used
        assert summary.n_localized_knn >= result.n_groups
        assert summary.n_merge_decisions >= result.n_groups
        assert summary.rounds_per_session == [result.rounds_used]
        assert summary.subqueries_final == [result.n_groups]

    def test_phase_durations_match_rounds(self, traced_session):
        tracer, _, result = traced_session
        phases = obs.phase_durations(tracer)
        assert len(phases["initial"]) == 1
        assert len(phases["iteration"]) == result.rounds_used - 1
        assert len(phases["final_knn"]) == 1
        assert all(d >= 0.0 for v in phases.values() for d in v)

    def test_session_metrics_recorded(self, traced_session):
        _, registry, result = traced_session
        assert registry.counters["qd_sessions_total"].value == 1.0
        assert (
            registry.counters["qd_feedback_rounds_total"].value
            == result.rounds_used
        )
        assert registry.counters["qd_distance_computations"].value > 0
        rounds_hist = registry.histograms["qd_session_rounds"]
        assert rounds_hist.count == 1
        assert rounds_hist.sum == result.rounds_used
        shown = registry.histograms["qd_representatives_shown"]
        assert shown.count == result.rounds_used


class TestExporters:
    def test_jsonl_round_trips_through_summarize(
        self, traced_session, tmp_path
    ):
        tracer, _, _ = traced_session
        path = tmp_path / "trace.jsonl"
        n_lines = obs.write_jsonl_trace(tracer, path)
        assert n_lines == sum(
            1 for _ in obs.iter_spans(tracer.to_dicts())
        )
        assert n_lines == len(path.read_text().splitlines())

        loaded = obs.load_jsonl_trace(path)
        assert loaded == tracer.to_dicts()

        direct = obs.summarize(tracer)
        via_file = obs.summarize(path)
        assert via_file == direct

    def test_jsonl_lines_are_valid_json(self, traced_session, tmp_path):
        tracer, _, _ = traced_session
        path = tmp_path / "trace.jsonl"
        obs.write_jsonl_trace(tracer, path)
        for line in path.read_text().splitlines():
            record = json.loads(line)
            assert {"span_id", "parent_id", "name", "start",
                    "duration", "attributes"} <= record.keys()

    def test_prometheus_text_is_parseable(self, traced_session):
        _, registry, _ = traced_session
        text = obs.prometheus_text(registry)
        sample = re.compile(
            r"^[a-zA-Z_:][a-zA-Z0-9_:]*"
            r"(\{[^}]*\})? [-+0-9.e]+$"
        )
        n_samples = 0
        for line in text.splitlines():
            if line.startswith("#"):
                assert line.startswith(("# HELP ", "# TYPE "))
                continue
            assert sample.match(line), line
            n_samples += 1
        assert n_samples > 0
        assert "qd_sessions_total 1" in text
        assert 'qd_session_rounds_bucket{le="+Inf"}' in text
        assert "qd_session_rounds_sum" in text
        assert "qd_session_rounds_count" in text

    def test_console_summary_reports_spans_and_metrics(
        self, traced_session
    ):
        tracer, registry, _ = traced_session
        text = obs.console_summary(tracer, registry)
        assert "Trace summary" in text
        assert "sessions: 1" in text
        assert "localized_knn" in text
        assert "Metrics" in text
        assert "qd_distance_computations" in text

    def test_empty_trace_and_registry(self, tmp_path):
        path = tmp_path / "empty.jsonl"
        assert obs.write_jsonl_trace(obs.Tracer(), path) == 0
        assert obs.load_jsonl_trace(path) == []
        assert obs.prometheus_text(obs.MetricsRegistry()) == ""
        summary = obs.summarize([])
        assert summary.n_sessions == 0

    def test_corrupt_trailing_line_skipped_with_warning(self, tmp_path):
        """The truncated tail of a crashed run must not lose the trace."""
        tracer = obs.Tracer()
        with tracer.span("session"):
            with tracer.span("round"):
                pass
        path = tmp_path / "crashed.jsonl"
        obs.write_jsonl_trace(tracer, path)
        intact = obs.load_jsonl_trace(path)
        with open(path, "a") as fh:
            fh.write('{"span_id": 99, "name": "trunc')  # crash mid-write
        with pytest.warns(RuntimeWarning, match=r"crashed\.jsonl:3"):
            loaded = obs.load_jsonl_trace(path)
        assert loaded == intact
        # Non-JSON garbage and JSON missing span_id are also skipped.
        with open(path, "a") as fh:
            fh.write('\nnot json at all\n{"parent_id": null}\n')
        with pytest.warns(RuntimeWarning):
            assert obs.load_jsonl_trace(path) == intact


class TestLabeledMetrics:
    def test_label_sets_form_distinct_children(self):
        registry = obs.MetricsRegistry()
        hit = registry.counter(
            "qd_cache_requests_total", "lookups", labels={"outcome": "hit"}
        )
        miss = registry.counter(
            "qd_cache_requests_total", labels={"outcome": "miss"}
        )
        assert hit is not miss
        hit.inc(3)
        miss.inc()
        # Same name + same labels resolves to the same child, in any
        # key order and value type.
        again = registry.counter(
            "qd_cache_requests_total", labels={"outcome": "hit"}
        )
        assert again is hit
        assert (
            registry.counters['qd_cache_requests_total{outcome="hit"}']
            .value
            == 3.0
        )

    def test_instrument_key_is_canonical(self):
        assert instrument_key("m") == "m"
        assert (
            instrument_key("m", {"b": 2, "a": "x"})
            == 'm{a="x",b="2"}'
        )

    def test_prometheus_renders_one_family_header_for_children(self):
        registry = obs.MetricsRegistry()
        registry.counter(
            "qd_phase_total", "phases", labels={"phase": "initial"}
        ).inc(1)
        registry.counter(
            "qd_phase_total", "phases", labels={"phase": "iteration"}
        ).inc(2)
        text = obs.prometheus_text(registry)
        assert text.count("# TYPE qd_phase_total counter") == 1
        assert text.count("# HELP qd_phase_total phases") == 1
        assert 'qd_phase_total{phase="initial"} 1' in text
        assert 'qd_phase_total{phase="iteration"} 2' in text

    def test_prometheus_labeled_histogram_series(self):
        registry = obs.MetricsRegistry()
        hist = registry.histogram(
            "qd_phase_seconds", "latency", labels={"phase": "initial"}
        )
        for v in (0.001, 0.002, 0.004):
            hist.observe(v)
        text = obs.prometheus_text(registry)
        assert "# TYPE qd_phase_seconds histogram" in text
        # Every series of the native histogram carries the child labels;
        # _bucket additionally carries le and ends at +Inf cumulative.
        assert re.search(
            r'qd_phase_seconds_bucket\{phase="initial",'
            r'le="[^"]+"\} \d+',
            text,
        )
        assert (
            'qd_phase_seconds_bucket{phase="initial",le="+Inf"} 3'
            in text
        )
        assert 'qd_phase_seconds_sum{phase="initial"}' in text
        assert 'qd_phase_seconds_count{phase="initial"} 3' in text

    def test_prometheus_escapes_label_values(self):
        registry = obs.MetricsRegistry()
        registry.counter(
            "c", labels={"path": 'a"b\\c'}
        ).inc()
        text = obs.prometheus_text(registry)
        assert 'c{path="a\\"b\\\\c"} 1' in text


class TestStreamingHistogram:
    def test_exact_percentiles_below_reservoir_cap(self):
        hist = Histogram("h")
        values = list(range(1, 101))
        for v in values:
            hist.observe(v)
        assert hist.count == 100
        assert hist.samples == [float(v) for v in values]
        for q in (0, 25, 50, 90, 95, 100):
            assert hist.percentile(q) == float(
                np.percentile(values, q)
            )

    def test_memory_bounded_and_estimator_above_cap(self):
        hist = Histogram("h", cap=64)
        rng = np.random.default_rng(7)
        values = rng.lognormal(mean=-5.0, sigma=1.0, size=5000)
        for v in values:
            hist.observe(float(v))
        assert hist.count == 5000
        assert len(hist.samples) == 64  # bounded, not the full stream
        # The bucket estimator is within one log-spaced bucket width
        # (10^(1/5) ~ 58%) of the true percentile, clamped to min/max.
        for q in (50, 95, 99):
            exact = float(np.percentile(values, q))
            est = hist.percentile(q)
            assert values.min() <= est <= values.max()
            assert exact / 1.6 <= est <= exact * 1.6
        assert hist.percentile(0) >= float(values.min())
        assert hist.percentile(100) == pytest.approx(
            float(values.max())
        )

    def test_reservoir_is_deterministic_per_key(self):
        stream = np.random.default_rng(3).normal(size=500)
        a = Histogram("h", cap=32)
        b = Histogram("h", cap=32)
        other = Histogram("h2", cap=32)
        for v in stream:
            a.observe(float(v))
            b.observe(float(v))
            other.observe(float(v))
        assert a.samples == b.samples  # same key, same stream
        assert a.samples != other.samples  # key seeds the RNG

    def test_default_cap_matches_module_constant(self):
        assert Histogram("h").cap == RESERVOIR_CAP

    def test_bucket_counts_are_cumulative_and_end_at_inf(self):
        hist = Histogram("h")
        for v in (0.5, 0.5, 2.0, 1e12):  # 1e12 -> overflow bucket
            hist.observe(v)
        pairs = hist.bucket_counts()
        counts = [c for _, c in pairs]
        assert counts == sorted(counts)
        assert counts[-1] == 4
        assert pairs[-1][0] == float("inf")
        bounds = [b for b, _ in pairs[:-1]]
        assert all(b in BUCKET_BOUNDS for b in bounds)

    def test_extremes_land_in_edge_buckets(self):
        hist = Histogram("h")
        for v in (-1.0, 0.0, 1e300):
            hist.observe(v)
        assert hist.count == 3
        pairs = hist.bucket_counts()
        assert pairs[0] == (BUCKET_BOUNDS[0], 2)  # <= smallest bound
        assert pairs[-1] == (float("inf"), 3)


class _CountingRegistry(obs.MetricsRegistry):
    """A live registry that counts every instrument an obs site reaches:
    each site looks its instrument up once per observation."""

    def __init__(self) -> None:
        super().__init__()
        self.observations = 0

    def counter(self, *args, **kwargs):
        self.observations += 1
        return super().counter(*args, **kwargs)

    def gauge(self, *args, **kwargs):
        self.observations += 1
        return super().gauge(*args, **kwargs)

    def histogram(self, *args, **kwargs):
        self.observations += 1
        return super().histogram(*args, **kwargs)


class TestFinalizeInstrumentationCount:
    """What a live tracer and registry cost a finalize, counted rather
    than timed: the spans it opens and the metric observations it makes
    repeat exactly for one structure and one set of marks, so an
    instrumentation site added to a hot loop (a span per leaf, a
    histogram per row) moves the count on any host."""

    def test_spans_and_observations_per_finalize_are_pinned(self):
        from repro.config import QDConfig, RFSConfig
        from repro.core.ranking import execute_final_round
        from repro.datasets.build import build_synthetic_database
        from repro.index.rfs import RFSStructure

        database = build_synthetic_database(2000, n_categories=30, seed=2006)
        rfs = RFSStructure.build(database.features, RFSConfig(), seed=2006)
        marks = [
            int(image_id)
            for category in (3, 11, 20)
            for image_id in np.flatnonzero(database.labels == category)[:4]
        ]

        def finalize():
            return execute_final_round(
                rfs, marks, 300, QDConfig(), rounds_used=3
            )

        plain = finalize()
        tracer = obs.Tracer()
        registry = _CountingRegistry()
        with obs.use_tracer(tracer), obs.use_metrics(registry):
            traced = finalize()
        assert traced.flatten() == plain.flatten()
        spans = list(obs.iter_spans(tracer.to_dicts()))
        assert (len(spans), registry.observations) == (14, 123)
