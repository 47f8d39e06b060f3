"""Canonical benchmark records and the noise-aware regression gate.

Covers the ``BENCH_*.json`` schema round-trip, validation failures,
the directory loader (``benchmarks/_harness.py``, the records' writer),
and the :func:`compare_results` threshold logic of
``scripts/bench_compare.py`` that the CI ``bench-regress`` job relies
on: a real slowdown fails, run jitter passes, silently dropped
metrics/benches fail.
"""

import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
# The records' writer and their reader live outside the package.
sys.path[:0] = [str(ROOT / "benchmarks"), str(ROOT / "scripts")]

from _harness import (  # noqa: E402
    BENCH_SCHEMA_VERSION,
    BenchResult,
    BenchSchemaError,
    load_bench_dir,
    load_bench_result,
    machine_fingerprint,
    validate_bench_result,
)
from bench_compare import (  # noqa: E402
    DEFAULT_MIN_ABS,
    compare_dirs,
    compare_results,
    format_comparison,
    main,
)


def _result(name="demo", **metrics) -> BenchResult:
    """A small valid record; metrics given as name=(value, kwargs)."""
    result = BenchResult.new(name, {"n": 100})
    for metric, (value, kwargs) in metrics.items():
        result.record(metric, value, **kwargs)
    return result


class TestBenchResultSchema:
    def test_new_stamps_provenance(self):
        result = BenchResult.new("demo", {"n": 1})
        assert result.schema_version == BENCH_SCHEMA_VERSION
        assert result.created_unix > 0
        assert result.git_sha  # sha or "unknown", never empty
        assert result.machine == machine_fingerprint()
        assert "python" in result.machine
        assert "numpy" in result.machine

    def test_record_series_computes_percentiles(self):
        result = BenchResult.new("demo")
        result.record(
            "t", [3.0, 1.0, 2.0], unit="s", higher_is_better=False
        )
        entry = result.metrics["t"]
        assert entry["values"] == [3.0, 1.0, 2.0]
        assert entry["p50"] == 2.0
        assert entry["p95"] == pytest.approx(2.9)
        assert entry["compare"] is True  # direction given

    def test_compare_defaults_follow_direction(self):
        result = BenchResult.new("demo")
        result.record("directionless", 1.0)
        assert result.metrics["directionless"]["compare"] is False
        result.record("directed", 1.0, higher_is_better=True)
        assert result.metrics["directed"]["compare"] is True
        result.record(
            "opted_out", 1.0, higher_is_better=True, compare=False
        )
        assert result.metrics["opted_out"]["compare"] is False

    def test_empty_series_rejected(self):
        with pytest.raises(ValueError, match="empty value series"):
            BenchResult.new("demo").record("m", [])

    def test_write_load_round_trip(self, tmp_path):
        result = _result(
            speedup=(2.5, dict(unit="x", higher_is_better=True)),
            wall_s=(
                [0.2, 0.3],
                dict(unit="s", higher_is_better=False, compare=False),
            ),
        )
        path = result.write(tmp_path)
        assert path.name == "BENCH_demo.json"
        loaded = load_bench_result(path)
        assert loaded.to_dict() == result.to_dict()

    def test_load_bench_dir_keys_by_name(self, tmp_path):
        _result("alpha", m=(1.0, dict(higher_is_better=True))).write(
            tmp_path
        )
        _result("beta", m=(2.0, dict(higher_is_better=True))).write(
            tmp_path
        )
        (tmp_path / "unrelated.json").write_text("{}")  # ignored
        loaded = load_bench_dir(tmp_path)
        assert sorted(loaded) == ["alpha", "beta"]
        assert load_bench_dir(tmp_path / "missing") == {}

    @pytest.mark.parametrize(
        "mutate, match",
        [
            (lambda d: d.pop("schema_version"), "schema_version"),
            (
                lambda d: d.update(schema_version=BENCH_SCHEMA_VERSION + 1),
                "newer than supported",
            ),
            (lambda d: d.update(name=""), "bad name"),
            (lambda d: d.update(metrics="nope"), "must be an object"),
            (
                lambda d: d["metrics"]["m"].update(values=[]),
                "non-empty number list",
            ),
            (
                lambda d: d["metrics"]["m"].pop("p50"),
                "missing numeric 'p50'",
            ),
            (
                lambda d: d["metrics"]["m"].update(higher_is_better="up"),
                "bad 'higher_is_better'",
            ),
        ],
    )
    def test_validation_failures(self, mutate, match):
        data = _result(
            m=(1.0, dict(higher_is_better=True))
        ).to_dict()
        mutate(data)
        with pytest.raises(BenchSchemaError, match=match):
            validate_bench_result(data)

    def test_corrupt_json_file(self, tmp_path):
        path = tmp_path / "BENCH_bad.json"
        path.write_text("{not json")
        with pytest.raises(BenchSchemaError, match="not valid JSON"):
            load_bench_result(path)


class TestCompareThresholds:
    def _pair(self, base_value, cur_value, **kwargs):
        base = _result(m=(base_value, kwargs))
        cur = _result(m=(cur_value, kwargs))
        return base, cur

    def test_big_drop_in_good_metric_regresses(self):
        base, cur = self._pair(2.0, 1.0, higher_is_better=True)
        (delta,) = compare_results(base, cur)
        assert delta.regression
        assert delta.rel_change == pytest.approx(-0.5)
        assert "REGRESSION" in delta.format()

    def test_small_jitter_passes(self):
        # -10% is well inside the default 35% relative gate.
        base, cur = self._pair(2.0, 1.8, higher_is_better=True)
        (delta,) = compare_results(base, cur)
        assert not delta.regression

    def test_improvement_never_regresses(self):
        base, cur = self._pair(2.0, 9.0, higher_is_better=True)
        (delta,) = compare_results(base, cur)
        assert not delta.regression

    def test_lower_is_better_direction(self):
        base, cur = self._pair(1.0, 2.5, higher_is_better=False)
        (delta,) = compare_results(base, cur)
        assert delta.regression
        base, cur = self._pair(2.5, 1.0, higher_is_better=False)
        (delta,) = compare_results(base, cur)
        assert not delta.regression

    def test_min_abs_floor_suppresses_tiny_absolute_moves(self):
        # 50% relative but only 0.05 absolute: under the 0.08 floor.
        base, cur = self._pair(0.1, 0.05, higher_is_better=True)
        (delta,) = compare_results(base, cur)
        assert abs(delta.current - delta.baseline) < DEFAULT_MIN_ABS
        assert not delta.regression
        # The same relative move above the floor regresses.
        base, cur = self._pair(1.0, 0.5, higher_is_better=True)
        (delta,) = compare_results(base, cur)
        assert delta.regression

    def test_metric_level_min_abs_overrides_global(self):
        base, cur = self._pair(
            1.0, 0.5, higher_is_better=True, min_abs=0.6
        )
        (delta,) = compare_results(base, cur)
        assert not delta.regression  # 0.5 absolute < 0.6 floor

    def test_custom_rel_threshold(self):
        base, cur = self._pair(2.0, 1.8, higher_is_better=True)
        (delta,) = compare_results(base, cur, rel_threshold=0.05)
        assert delta.regression

    def test_times_skipped_across_machines(self):
        base = _result(
            wall_s=(1.0, dict(higher_is_better=False, compare=False))
        )
        cur = _result(
            wall_s=(99.0, dict(higher_is_better=False, compare=False))
        )
        cur.machine = {**cur.machine, "hostname": "elsewhere"}
        assert compare_results(base, cur) == []
        # Same machine (or --include-times): times are informational
        # but still diffed.
        cur.machine = dict(base.machine)
        (delta,) = compare_results(base, cur)
        assert delta.note == "informational"

    def test_missing_comparable_metric_regresses(self):
        base = _result(
            speedup=(2.0, dict(higher_is_better=True)),
        )
        cur = BenchResult.new("demo", {"n": 100})  # metric dropped
        (delta,) = compare_results(base, cur)
        assert delta.regression
        assert delta.note == "missing from current run"

    def test_new_current_metrics_are_ignored(self):
        base = _result(m=(1.0, dict(higher_is_better=True)))
        cur = _result(
            m=(1.0, dict(higher_is_better=True)),
            extra=(5.0, dict(higher_is_better=True)),
        )
        deltas = compare_results(base, cur)
        assert [d.metric for d in deltas] == ["m"]


class TestCompareDirs:
    def test_whole_missing_bench_is_a_regression(self, tmp_path):
        base_dir = tmp_path / "base"
        cur_dir = tmp_path / "cur"
        _result("a", m=(1.0, dict(higher_is_better=True))).write(base_dir)
        _result("b", m=(1.0, dict(higher_is_better=True))).write(base_dir)
        _result("a", m=(1.0, dict(higher_is_better=True))).write(cur_dir)
        deltas, missing = compare_dirs(base_dir, cur_dir)
        assert missing == ["b"]
        assert not any(d.regression for d in deltas)
        table = format_comparison(deltas, missing)
        assert "missing from current results: REGRESSION" in table

    def test_identical_dirs_pass(self, tmp_path):
        base_dir = tmp_path / "base"
        cur_dir = tmp_path / "cur"
        result = _result("a", m=(1.0, dict(higher_is_better=True)))
        result.write(base_dir)
        result.write(cur_dir)
        deltas, missing = compare_dirs(base_dir, cur_dir)
        assert missing == []
        assert all(not d.regression for d in deltas)


class TestBenchCompareScript:
    """The CLI gate around :func:`compare_dirs` (exit codes, output)."""

    @pytest.fixture()
    def script_main(self):
        return main

    def test_exit_codes(self, script_main, tmp_path, capsys):
        base_dir = tmp_path / "base"
        cur_dir = tmp_path / "cur"
        _result("a", m=(2.0, dict(higher_is_better=True))).write(base_dir)
        _result("a", m=(2.0, dict(higher_is_better=True))).write(cur_dir)

        args = ["--baseline", str(base_dir), "--current", str(cur_dir)]
        assert script_main(args) == 0

        _result("a", m=(0.5, dict(higher_is_better=True))).write(cur_dir)
        assert script_main(args) == 1  # 75% drop regresses

        assert script_main(args + ["--validate-only"]) == 0
        (cur_dir / "BENCH_bad.json").write_text("{broken")
        assert script_main(args + ["--validate-only"]) == 2
        assert script_main(args) == 2  # schema error beats comparison
        capsys.readouterr()

    def test_missing_baseline_dir(self, script_main, tmp_path, capsys):
        cur_dir = tmp_path / "cur"
        _result("a", m=(1.0, dict(higher_is_better=True))).write(cur_dir)
        code = script_main(
            ["--baseline", str(tmp_path / "none"),
             "--current", str(cur_dir)]
        )
        assert code == 2
        capsys.readouterr()

    def test_prints_trend_rows_before_the_diff(
        self, script_main, tmp_path, capsys
    ):
        base_dir = tmp_path / "base"
        cur_dir = tmp_path / "cur"
        _result("a", m=(2.0, dict(higher_is_better=True))).write(base_dir)
        _result(
            "a",
            m=(2.0, dict(unit="x", higher_is_better=True)),
            wall_s=([0.5, 1.5], dict(unit="s", compare=False)),
        ).write(cur_dir)
        assert script_main(
            ["--baseline", str(base_dir), "--current", str(cur_dir)]
        ) == 0
        out = capsys.readouterr().out
        assert out.index("a  (sha ") < out.index("bench ")  # trend first
        assert (
            "  m                        p50      2.000 x     "
            "p95      2.000  [higher, gated]"
        ) in out
        assert "  wall_s " in out and "[info, info]" in out
