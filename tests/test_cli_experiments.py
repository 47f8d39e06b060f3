"""CLI experiment-subcommand tests (small database scale)."""

import numpy as np
import pytest

from repro.cli import main as cli_main
from repro.core.engine import _screens_for_round
from repro.eval.experiments import _trimmed_mean


@pytest.fixture(scope="module")
def db_path(tmp_path_factory, rendered_db):
    path = tmp_path_factory.mktemp("clix") / "db.npz"
    rendered_db.save(path)
    return path


class TestExperimentSubcommands:
    def test_table1(self, db_path, capsys):
        assert cli_main([
            "experiment", "table1", "--db", str(db_path),
            "--trials", "1", "--seed", "3",
        ]) == 0
        out = capsys.readouterr().out
        assert "Table 1" in out
        assert "Average" in out

    def test_table2(self, db_path, capsys):
        assert cli_main([
            "experiment", "table2", "--db", str(db_path),
            "--trials", "1", "--seed", "3",
        ]) == 0
        out = capsys.readouterr().out
        assert "Table 2" in out
        assert "n/a" in out

    def test_cases(self, db_path, capsys):
        assert cli_main([
            "experiment", "cases", "--db", str(db_path),
            "--seed", "3",
        ]) == 0
        assert "top-8" in capsys.readouterr().out

    def test_interactive_with_scripted_stdin(self, db_path, capsys,
                                             monkeypatch):
        replies = iter(["all", "all", "all"])
        monkeypatch.setattr(
            "builtins.input", lambda prompt="": next(replies)
        )
        assert cli_main([
            "interactive", "--db", str(db_path), "--k", "10",
            "--rounds", "3", "--screens", "1", "--seed", "5",
        ]) == 0
        assert "final result" in capsys.readouterr().out

    def test_interactive_end_of_input_is_one_error_line(
        self, db_path, capsys, monkeypatch
    ):
        replies = iter(["all"])

        def scripted(prompt=""):
            try:
                return next(replies)
            except StopIteration:
                raise EOFError from None

        monkeypatch.setattr("builtins.input", scripted)
        assert cli_main([
            "interactive", "--db", str(db_path), "--k", "10",
            "--rounds", "3", "--screens", "1", "--seed", "5",
        ]) == 1
        err = capsys.readouterr().err
        assert err.splitlines() == [
            "error: input ended before round 2 was answered"
        ]

    @pytest.mark.parametrize("name", ["table1", "table2"])
    @pytest.mark.parametrize("trials", ["0", "-2"])
    def test_trials_below_one_is_a_usage_error(
        self, db_path, capsys, name, trials
    ):
        with pytest.raises(SystemExit) as exc:
            cli_main([
                "experiment", name, "--db", str(db_path),
                "--trials", trials,
            ])
        assert exc.value.code == 2
        assert "--trials: must be >= 1" in capsys.readouterr().err


class TestEngineHelpers:
    def test_screens_for_round_int(self):
        assert _screens_for_round(4, 1) == 4
        assert _screens_for_round(4, 9) == 4

    def test_screens_for_round_sequence(self):
        assert _screens_for_round((2, 5, 9), 1) == 2
        assert _screens_for_round((2, 5, 9), 3) == 9
        assert _screens_for_round((2, 5, 9), 7) == 9  # last repeats

    def test_screens_for_round_empty_sequence(self):
        assert _screens_for_round((), 1) == 1


class TestTrimmedMean:
    def test_plain_mean_when_short(self):
        assert _trimmed_mean([1.0, 3.0]) == 2.0

    def test_trims_outliers(self):
        values = [1.0] * 18 + [100.0, 0.0]
        assert _trimmed_mean(values, trim=0.1) == pytest.approx(1.0)

    def test_empty(self):
        assert _trimmed_mean([]) == 0.0

    def test_matches_numpy_on_uniform(self):
        values = list(np.linspace(0, 1, 50))
        assert _trimmed_mean(values) == pytest.approx(0.5, abs=0.02)
