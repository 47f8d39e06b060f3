"""Collapsed-stack profiles: read from a finished trace.

Covers :func:`repro.obs.collapsed_from_trace` (each span path's exact
self time in microseconds, flamegraph input) and the CLI ``--profile``
wiring, which writes that text for the run's trace and starts no thread.
"""

import threading
import time

import pytest

from repro import obs
from repro.cli import main as cli_main
from repro.obs import collapsed_from_trace


class TestCollapsedFromTrace:
    def _trace(self):
        return [
            {
                "name": "session",
                "duration": 0.010,
                "children": [
                    {"name": "round", "duration": 0.004, "children": []},
                    {"name": "round", "duration": 0.003, "children": []},
                ],
            }
        ]

    def test_exact_self_time_in_microseconds(self):
        text = collapsed_from_trace(self._trace())
        lines = dict(
            line.rsplit(" ", 1) for line in text.splitlines()
        )
        # session self time = 10ms - (4ms + 3ms) = 3ms; rounds add up.
        assert int(lines["session"]) == 3000
        assert int(lines["session;round"]) == 7000

    def test_deterministic_given_a_trace(self):
        trace = self._trace()
        assert collapsed_from_trace(trace) == collapsed_from_trace(trace)

    def test_zero_self_time_paths_omitted(self):
        trace = [
            {
                "name": "wrapper",
                "duration": 0.002,
                "children": [
                    {"name": "work", "duration": 0.002, "children": []}
                ],
            }
        ]
        text = collapsed_from_trace(trace)
        assert text == "wrapper;work 2000\n"

    def test_accepts_a_tracer(self):
        tracer = obs.Tracer()
        with tracer.span("outer"):
            time.sleep(0.002)
        text = collapsed_from_trace(tracer)
        assert text.startswith("outer ")

    def test_empty_trace(self):
        assert collapsed_from_trace([]) == ""


def test_cli_profile_flag_writes_collapsed_output(tmp_path):
    """``--profile FILE`` writes the collapsed stacks of the run."""
    from repro.cli import _obs_scope, build_parser

    parser = build_parser()
    out = tmp_path / "prof.folded"
    args = parser.parse_args(
        ["query", "--db", "x.npz", "--query", "bird",
         "--profile", str(out)]
    )
    assert args.profile == str(out)
    with _obs_scope(args):
        tracer = obs.get_tracer()
        assert tracer.enabled  # --profile alone installs a real tracer
        with tracer.span("session"):
            with tracer.span("round"):
                time.sleep(0.03)
    text = out.read_text()
    assert "session" in text


@pytest.fixture()
def db_path(tmp_path, rendered_db):
    path = tmp_path / "db.npz"
    rendered_db.save(path)
    return path


def test_query_profile_is_the_collapsed_trace_and_starts_no_thread(
    db_path, tmp_path, monkeypatch, capsys
):
    started = []
    real_start = threading.Thread.start

    def record_start(thread):
        started.append(thread.name)
        real_start(thread)

    monkeypatch.setattr(threading.Thread, "start", record_start)
    trace, profile = tmp_path / "run.jsonl", tmp_path / "run.folded"
    assert cli_main([
        "query", "--db", str(db_path), "--query", "bird", "--seed", "2",
        "--k", "20", "--trace", str(trace), "--profile", str(profile),
    ]) == 0
    assert started == []
    text = profile.read_text()
    assert text == collapsed_from_trace(trace)
    assert text.startswith("session")
    lines = text.splitlines()
    assert f"profile: {len(lines)} stack(s)" in capsys.readouterr().out
