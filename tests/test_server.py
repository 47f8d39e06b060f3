"""Tests for the concurrent serving stack (repro.serve).

Covers the new config validation (ServeConfig bounds, session ttl),
the structured :class:`FrontEndResult` surface of ``SessionFrontEnd``
(including stale-session signalling as a retriable response), the
``QDServer`` admission control (load shedding, deadlines, graceful
drain, stats/metrics) and the JSON-lines TCP front.
"""

from __future__ import annotations

import contextlib
import json
import os
import signal
import socket
import sqlite3
import struct
import subprocess
import sys
import threading
import time
import types
from pathlib import Path

import numpy as np
import pytest

import repro
from repro.cli import main as cli_main
from repro.config import CacheConfig, QDConfig, RFSConfig, ServeConfig
from repro.core import SessionFrontEnd
from repro.core.clientserver import FrontEndResult
from repro.core.engine import QueryDecompositionEngine
from repro.datasets.build import build_synthetic_database
from repro.datasets.queryset import query_names
from repro.errors import ConfigurationError
from repro.serve import QDServer, QDTCPServer, serve_tcp
from repro.sessionstore import InMemorySessionStore, make_session_store

N_IMAGES = 400
SEED = 1129
RFS_CONFIG = RFSConfig(
    node_max_entries=40, leaf_subclusters=3
)


@pytest.fixture(scope="module")
def database():
    return build_synthetic_database(N_IMAGES, n_categories=30, seed=SEED)


@pytest.fixture()
def engine(database):
    with QueryDecompositionEngine.build(
        database, RFS_CONFIG, QDConfig(), seed=SEED
    ) as eng:
        eng.attach_session_store(InMemorySessionStore())
        yield eng


def _mark_fn(database):
    # Prefer a couple of true categories, but never return an empty
    # mark set (finalize needs at least one relevant image).
    relevant = set(np.flatnonzero(database.labels <= 4).tolist())
    return lambda shown: (
        [i for i in shown if i in relevant] or list(shown[:3])
    )


# ----------------------------------------------------------------------
# Config validation (satellite: reject nonsensical bounds up front)
# ----------------------------------------------------------------------
class TestConfigValidation:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"workers": 0},
            {"workers": -3},
            {"queue_limit": 0},
            {"default_deadline_s": 0.0},
            {"default_deadline_s": -1.0},
            {"default_deadline_s": float("inf")},
            {"default_deadline_s": float("nan")},
            {"drain_timeout_s": -0.5},
            {"drain_timeout_s": float("nan")},
            {"drain_timeout_s": float("inf")},
        ],
    )
    def test_serve_config_rejects(self, kwargs):
        with pytest.raises(ConfigurationError):
            ServeConfig(**kwargs)

    def test_serve_config_defaults_valid(self):
        config = ServeConfig()
        assert config.workers >= 1
        assert config.queue_limit >= 1
        # 0 = wait forever is an allowed drain timeout.
        ServeConfig(drain_timeout_s=0.0)

    @pytest.mark.parametrize(
        "ttl", [0.0, -5.0, float("inf"), float("nan")]
    )
    def test_session_ttl_rejects_non_positive(self, ttl, tmp_path):
        # A zero, negative or infinite TTL would reap every live session
        # (or, for NaN, none): every backend refuses it before sweeping.
        for kind in ("memory", "sqlite"):
            with make_session_store(
                kind, str(tmp_path / kind)
            ) as store, pytest.raises(ConfigurationError):
                store.sweep_expired(ttl)

    def test_cli_expire_with_negative_ttl_keeps_live_sessions(
        self, engine, tmp_path, capsys
    ):
        path = str(tmp_path / "sessions.db")
        with make_session_store("sqlite", path) as store:
            engine.attach_session_store(store)
            engine.open_session(seed=3, session_id="live")
            engine.detach_session_store()
        code = cli_main([
            "sessions", "expire", "--session-store", "sqlite",
            "--session-path", path, "--ttl", "-5",
        ])
        assert code == 1
        assert "ttl_s must be a positive finite number" in (
            capsys.readouterr().err
        )
        with make_session_store("sqlite", path) as store:
            assert store.list_ids() == ["live"]

    def test_cli_list_goes_past_unreadable_and_vanished_rows(
        self, engine, tmp_path, capsys, monkeypatch
    ):
        # A corrupt record is reported and left in place; a session
        # finalized between the listing and the read is skipped.
        import sqlite3

        from repro.sessionstore.sqlite import SQLiteSessionStore

        path = str(tmp_path / "sessions.db")
        with make_session_store("sqlite", path) as store:
            engine.attach_session_store(store)
            engine.open_session(seed=3, session_id="good")
            engine.detach_session_store()
        with contextlib.closing(sqlite3.connect(path)) as conn, conn:
            conn.execute(
                "INSERT INTO qd_sessions VALUES (?, ?, ?)",
                ("bad", time.time(), "{not json"),
            )
        monkeypatch.setattr(
            SQLiteSessionStore, "list_ids",
            lambda self: ["bad", "gone", "good"],
        )
        code = cli_main([
            "sessions", "list", "--session-store", "sqlite",
            "--session-path", path,
        ])
        assert code == 0
        rows = capsys.readouterr().out.splitlines()[1:]
        assert len(rows) == 2
        bad, good = rows
        assert bad.split()[0] == "bad"
        assert "unreadable: session record is not valid JSON" in bad
        assert good.split()[:3] == ["good", "0", "0"]
        with make_session_store("sqlite", path) as store:
            assert store.read_record("bad") == "{not json"

    @pytest.mark.parametrize("mb", [float("nan"), float("inf")])
    def test_cache_capacity_must_be_finite(self, mb):
        with pytest.raises(ConfigurationError, match="positive finite"):
            CacheConfig(enabled=True, capacity_mb=mb)

    @pytest.mark.parametrize("mb", ["nan", "inf"])
    def test_cli_non_finite_cache_mb_is_one_error_line(
        self, database, tmp_path, capsys, mb
    ):
        db_path = tmp_path / "db.npz"
        database.save(db_path)
        code = cli_main([
            "serve", "--db", str(db_path), "--port", "0",
            "--session-store", "memory", "--cache", "--cache-mb", mb,
        ])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: cache capacity_mb must be a positive")
        assert len(err.splitlines()) == 1

    @pytest.mark.parametrize("shards", ["0", "2"])
    @pytest.mark.parametrize(
        "flags, message",
        [
            (
                ["--cache", "--cache-mb", "nan"],
                "error: cache capacity_mb must be a positive finite "
                "number, got nan",
            ),
            (
                ["--mutations", "--compact-threshold", "0"],
                "error: compact_threshold must be >= 1, got 0",
            ),
        ],
        ids=["cache-mb", "compact-threshold"],
    )
    def test_cli_refused_values_fail_before_the_build(
        self, database, tmp_path, capsys, monkeypatch, shards, flags, message
    ):
        from repro.index.rfs import RFSStructure

        def no_build(*args, **kwargs):
            raise AssertionError("the tree was built before the refusal")

        monkeypatch.setattr(RFSStructure, "build", no_build)
        db_path = tmp_path / "db.npz"
        database.save(db_path)
        code = cli_main([
            "serve", "--db", str(db_path), "--port", "0",
            "--session-store", "memory", "--shards", shards, *flags,
        ])
        assert code == 1
        assert capsys.readouterr().err.splitlines() == [message]

    @pytest.mark.parametrize("port", ["-1", "65536"])
    def test_cli_refuses_out_of_range_port(self, port, capsys):
        with pytest.raises(SystemExit) as exc:
            cli_main([
                "serve", "--db", "db.npz", "--session-store", "memory",
                "--port", port,
            ])
        assert exc.value.code == 2
        assert "argument --port: must be" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv",
        [
            ["query", "--db", "db.npz", "--query", query_names()[0]],
            ["serve", "--db", "db.npz", "--session-store", "memory"],
        ],
        ids=["query", "serve"],
    )
    def test_cli_refuses_negative_shards(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            cli_main(argv + ["--shards", "-2"])
        assert exc.value.code == 2
        assert "--shards: must be >= 0, got -2" in capsys.readouterr().err


# ----------------------------------------------------------------------
# SessionFrontEnd.handle — structured results
# ----------------------------------------------------------------------
class TestFrontEndHandle:
    def test_ok_dialogue(self, database, engine):
        frontend = SessionFrontEnd(engine)
        mark = _mark_fn(database)
        opened = frontend.handle("open", seed=3)
        assert opened.ok and not opened.retriable
        sid = opened.value
        shown = frontend.handle("display", session_id=sid, screens=2)
        assert shown.ok
        marked = frontend.handle(
            "submit", session_id=sid, relevant_ids=mark(shown.value)
        )
        assert marked.ok
        final = frontend.handle("finalize", session_id=sid, k=30)
        assert final.ok
        assert final.value.groups

    def test_unknown_op(self, engine):
        result = SessionFrontEnd(engine).handle("explode")
        assert result == FrontEndResult(
            ok=False,
            error_kind="invalid_request",
            error=result.error,
        )
        assert "explode" in result.error

    def test_not_found(self, engine):
        result = SessionFrontEnd(engine).handle(
            "display", session_id="no-such-session"
        )
        assert not result.ok
        assert result.error_kind == "not_found"
        assert not result.retriable

    def test_invalid_state(self, engine):
        frontend = SessionFrontEnd(engine)
        sid = frontend.handle("open", seed=3).value
        result = frontend.handle(
            "submit", session_id=sid, relevant_ids=[1]
        )
        assert result.error_kind == "invalid_state"
        assert not result.retriable

    def test_invalid_request(self, engine):
        frontend = SessionFrontEnd(engine)
        sid = frontend.handle("open", seed=3).value
        result = frontend.handle(
            "display", session_id=sid, screens="many"
        )
        assert result.error_kind == "invalid_request"

    def test_stale_session_is_retriable(self, engine):
        frontend = SessionFrontEnd(engine)
        sid = frontend.handle("open", seed=3).value
        engine.rfs.structure_version += 1  # simulate an index rebuild
        result = frontend.handle("display", session_id=sid)
        assert not result.ok
        assert result.error_kind == "stale_session"
        assert result.retriable
        assert "version" in result.error


# ----------------------------------------------------------------------
# QDServer admission control
# ----------------------------------------------------------------------
class _GatedFrontEnd:
    """Stand-in front-end whose handle() blocks on a shared gate."""

    gate = threading.Event()
    entered = threading.Semaphore(0)

    def __init__(self, engine, worker_id=""):
        del engine, worker_id

    def handle(self, op, **kwargs):
        del op, kwargs
        self.entered.release()
        assert self.gate.wait(timeout=10.0)
        return FrontEndResult(ok=True, value="done")


@pytest.fixture()
def gated_server(engine, monkeypatch):
    _GatedFrontEnd.gate = threading.Event()
    _GatedFrontEnd.entered = threading.Semaphore(0)
    monkeypatch.setattr(
        "repro.serve.server.SessionFrontEnd", _GatedFrontEnd
    )
    server = QDServer(
        engine, ServeConfig(workers=1, queue_limit=2, drain_timeout_s=0.2)
    )
    yield server
    _GatedFrontEnd.gate.set()
    server.close(drain=False)


def _in_thread(results, key, fn, *args, **kwargs):
    def run():
        results[key] = fn(*args, **kwargs)

    thread = threading.Thread(target=run, name=f"caller-{key}")
    thread.start()
    return thread


def _await(predicate, what):
    deadline = time.monotonic() + 5.0
    while not predicate():
        assert time.monotonic() < deadline, f"timed out waiting for {what}"
        time.sleep(0.001)


def _occupy_slot(server, results):
    """Park a caller inside the gated front-end, holding the one slot."""
    thread = _in_thread(
        results, "held", server.request, "display", session_id="x"
    )
    assert _GatedFrontEnd.entered.acquire(timeout=5.0)
    return thread


class TestQDServer:
    def test_requires_session_store(self, database):
        with QueryDecompositionEngine.build(
            database, RFS_CONFIG, QDConfig(), seed=SEED
        ) as bare:
            with pytest.raises(ConfigurationError):
                QDServer(bare)

    def test_constructing_a_server_starts_no_thread(self, engine):
        before = threading.active_count()
        server = QDServer(engine, ServeConfig(workers=4))
        assert threading.active_count() == before
        assert server.close() is True
        assert threading.active_count() == before

    def test_dialogue_matches_direct_engine(self, database, engine):
        mark = _mark_fn(database)

        def signature(result):
            return [
                (
                    g.leaf_node_id,
                    tuple((i.item_id, i.score) for i in g.items),
                )
                for g in result.groups
            ]

        session = engine.new_session(seed=9)
        shown = session.display(screens=2)
        session.submit(mark(shown))
        expected_shown, expected = shown, signature(session.finalize(40))

        with QDServer(engine, ServeConfig(workers=3)) as server:
            sid = server.request("open", seed=9).value
            response = server.request(
                "display", session_id=sid, screens=2
            )
            assert response.ok
            assert response.value == expected_shown
            assert server.request(
                "submit",
                session_id=sid,
                relevant_ids=mark(response.value),
            ).ok
            final = server.request("finalize", session_id=sid, k=40)
            assert final.ok
            assert signature(final.value) == expected
            assert final.service_s > 0.0
            assert server.stats["completed"] == 4
            assert server.stats["shed"] == 0

    def test_queue_full_sheds_immediately(self, gated_server):
        results: dict = {}
        holder = _occupy_slot(gated_server, results)
        waiters = [
            _in_thread(
                results, n, gated_server.request, "display", session_id="x"
            )
            for n in range(2)
        ]
        _await(lambda: gated_server.queue_depth == 2, "two waiters")
        # Answered on the calling thread while the slot is still held.
        response = gated_server.request("display", session_id="x")
        assert response.status == "shed"
        assert response.retriable
        assert "queue_full" in response.error
        assert gated_server.stats["shed"] == 1
        _GatedFrontEnd.gate.set()
        for thread in (holder, *waiters):
            thread.join(5.0)
        assert all(results[key].ok for key in ("held", 0, 1))
        assert gated_server.stats["admitted"] == 3

    def test_deadline_expires_in_queue(self, gated_server):
        results: dict = {}
        holder = _occupy_slot(gated_server, results)
        doomed = _in_thread(
            results, "doomed", gated_server.request, "display",
            session_id="x", deadline_s=0.01,
        )
        time.sleep(0.05)
        _GatedFrontEnd.gate.set()
        for thread in (holder, doomed):
            thread.join(5.0)
        response = results["doomed"]
        assert response.status == "deadline_expired"
        assert response.retriable
        assert response.queue_wait_s > 0.0
        assert gated_server.stats["expired"] == 1

    def test_draining_sheds_new_requests(self, engine):
        server = QDServer(engine, ServeConfig(workers=1))
        assert server.drain() is True
        response = server.request("display", session_id="x")
        assert response.status == "shed"
        assert "draining" in response.error
        assert not server.accepting
        assert server.close() is True

    def test_close_reports_unfinished_drain(self, gated_server):
        results: dict = {}
        _occupy_slot(gated_server, results)
        _in_thread(
            results, "waiter", gated_server.request, "display",
            session_id="x",
        )
        _await(lambda: gated_server.queue_depth == 1, "the waiter")
        assert gated_server.drain(timeout_s=0.05) is False

    def test_failed_submit_checkpoint_resumes_at_the_last_acked_round(
        self, database, tmp_path, monkeypatch
    ):
        # The SQLite write of one submit's checkpoint fails (a full or
        # failing disk).  The reply is ``internal``, the half-applied
        # session is not handed back to the engine, and re-sending that
        # submit continues the dialogue from the last acknowledged
        # round: the same screens and ranking as an uninterrupted run.
        from repro.sessionstore import SQLiteSessionStore

        mark = _mark_fn(database)
        put = SQLiteSessionStore._put
        failing = []

        def flaky_put(self, session_id, *args):
            if failing and session_id == failing[0]:
                failing.clear()
                raise sqlite3.OperationalError("disk I/O error")
            return put(self, session_id, *args)

        monkeypatch.setattr(SQLiteSessionStore, "_put", flaky_put)

        def dialogue(server, fail_round=None):
            sid = server.request("open", seed=9).value
            screens = []
            for round_no in range(2):
                shown = server.request("display", session_id=sid).value
                screens.append(shown)
                if round_no == fail_round:
                    failing.append(sid)
                    failed = server.request(
                        "submit", session_id=sid, relevant_ids=mark(shown)
                    )
                    assert failed.status == "internal"
                    assert "disk I/O error" in failed.error
                    assert not failing  # the armed write was the one
                    assert sid not in server.engine._hot_sessions
                assert server.request(
                    "submit", session_id=sid, relevant_ids=mark(shown)
                ).ok
            final = server.request("finalize", session_id=sid, k=40)
            assert final.ok
            ranking = [
                (g.leaf_node_id, [(i.item_id, i.score) for i in g.items])
                for g in final.value.groups
            ]
            return screens, ranking

        with QueryDecompositionEngine.build(
            database, RFS_CONFIG, QDConfig(), seed=SEED
        ) as eng, SQLiteSessionStore(tmp_path / "sessions.db") as store:
            eng.attach_session_store(store)
            with QDServer(eng, ServeConfig(workers=1)) as server:
                reference = dialogue(server)
                for fail_round in (0, 1):
                    assert dialogue(server, fail_round) == reference

    def test_internal_errors_become_responses(self, engine, monkeypatch):
        def boom(self, op, **kwargs):
            raise RuntimeError("kaboom")

        monkeypatch.setattr(SessionFrontEnd, "handle", boom)
        with QDServer(engine, ServeConfig(workers=1)) as server:
            response = server.request("open", seed=1)
        assert response.status == "internal"
        assert "kaboom" in response.error
        assert not response.retriable


# ----------------------------------------------------------------------
# TCP front
# ----------------------------------------------------------------------
class TestTCPServer:
    @pytest.fixture()
    def tcp(self, engine):
        core = QDServer(engine, ServeConfig(workers=2))
        server = serve_tcp(core, "127.0.0.1", 0, background=True)
        yield server
        server.close()

    def _client(self, tcp):
        sock = socket.create_connection(
            tcp.server_address[:2], timeout=5.0
        )
        return sock, sock.makefile("rw", encoding="utf-8")

    def _roundtrip(self, stream, payload):
        stream.write(json.dumps(payload) + "\n")
        stream.flush()
        return json.loads(stream.readline())

    def test_dialogue_over_socket(self, tcp, database):
        mark = _mark_fn(database)
        sock, stream = self._client(tcp)
        try:
            opened = self._roundtrip(stream, {"op": "open", "seed": 4})
            assert opened["status"] == "ok"
            sid = opened["value"]
            shown = self._roundtrip(
                stream,
                {"op": "display", "session_id": sid, "screens": 2},
            )
            assert shown["status"] == "ok"
            submitted = self._roundtrip(
                stream,
                {
                    "op": "submit",
                    "session_id": sid,
                    "relevant_ids": mark(shown["value"]),
                },
            )
            assert submitted["status"] == "ok"
            final = self._roundtrip(
                stream, {"op": "finalize", "session_id": sid, "k": 25}
            )
            assert final["status"] == "ok"
            groups = final["value"]["groups"]
            assert groups and all(g["items"] for g in groups)
        finally:
            sock.close()

    @pytest.mark.parametrize(
        "payload, fragment",
        [
            ({"op": "warp"}, "unknown op"),
            ({"op": "display"}, "session_id"),
            (
                {"op": "open", "seed": 1, "bogus": True},
                "unexpected fields",
            ),
        ],
    )
    def test_request_validation(self, tcp, payload, fragment):
        sock, stream = self._client(tcp)
        try:
            response = self._roundtrip(stream, payload)
            assert response["status"] == "invalid_request"
            assert fragment in response["error"]
        finally:
            sock.close()

    def test_invalid_json_line(self, tcp):
        sock, stream = self._client(tcp)
        try:
            stream.write("this is not json\n")
            stream.flush()
            response = json.loads(stream.readline())
            assert response["status"] == "invalid_request"
        finally:
            sock.close()

    def test_malformed_non_object_lines_keep_connection(self, tcp):
        """Valid JSON that is not an object: structured error, live socket."""
        sock, stream = self._client(tcp)
        try:
            for line in ("[1]", "3", '"x"', "null"):
                stream.write(line + "\n")
                stream.flush()
                reply = stream.readline()
                assert reply, f"connection died on {line!r}"
                response = json.loads(reply)
                assert response["status"] == "invalid_request"
                assert "JSON object" in response["error"]
            opened = self._roundtrip(stream, {"op": "open", "seed": 4})
            assert opened["status"] == "ok"
        finally:
            sock.close()

    def test_deeply_nested_line_keeps_connection(self, tcp):
        """A line nested past the JSON decoder's recursion limit is
        refused like any malformed line; the connection stays usable."""
        sock, stream = self._client(tcp)
        try:
            stream.write("[" * 100_000 + "\n")
            stream.flush()
            reply = stream.readline()
            assert reply, "connection died on a deeply nested line"
            assert json.loads(reply)["status"] == "invalid_request"
            opened = self._roundtrip(stream, {"op": "open", "seed": 4})
            assert opened["status"] == "ok"
        finally:
            sock.close()

    def test_overlong_line_is_refused_not_buffered(self, tcp):
        """The server reads at most MAX_REQUEST_LINE_BYTES of a line: a
        longer one — here never even terminated — gets a structured
        error and the connection is closed; the server keeps serving."""
        from repro.serve.tcp import MAX_REQUEST_LINE_BYTES

        sock, stream = self._client(tcp)
        try:
            stream.write("x" * (MAX_REQUEST_LINE_BYTES + 1))
            stream.flush()
            reply = stream.readline()  # 5 s socket timeout, not a hang
            assert reply, "connection closed without an answer"
            response = json.loads(reply)
            assert response["status"] == "invalid_request"
            assert str(MAX_REQUEST_LINE_BYTES) in response["error"]
            assert stream.readline() == ""  # closed by the server
        finally:
            sock.close()
        sock, stream = self._client(tcp)
        try:
            # A line of exactly the bound is still read and parsed.
            padded = json.dumps({"op": "open", "seed": 4})
            padded += " " * (MAX_REQUEST_LINE_BYTES - len(padded) - 1)
            stream.write(padded + "\n")
            stream.flush()
            assert json.loads(stream.readline())["status"] == "ok"
        finally:
            sock.close()

    def test_open_of_a_live_session_id_is_refused(self, tcp, engine,
                                                  database):
        mark = _mark_fn(database)
        sock, stream = self._client(tcp)
        try:
            opened = {"op": "open", "seed": 4, "session_id": "alice"}
            assert self._roundtrip(stream, opened)["status"] == "ok"
            shown = self._roundtrip(
                stream, {"op": "display", "session_id": "alice"}
            )["value"]
            marks = mark(shown)
            assert marks
            assert self._roundtrip(
                stream,
                {"op": "submit", "session_id": "alice",
                 "relevant_ids": marks},
            )["status"] == "ok"
            before = engine.session_store.get("alice")
            again = self._roundtrip(stream, dict(opened, seed=5))
            assert again["status"] == "invalid_request"
            assert "'alice'" in again["error"]
            assert engine.session_store.get("alice") == before
            assert before.round == 1
            assert before.marked == tuple(sorted(marks))
            # the live dialogue carries on where it was
            assert self._roundtrip(
                stream, {"op": "display", "session_id": "alice"}
            )["status"] == "ok"
        finally:
            sock.close()

    def test_many_connections_leave_no_state_in_the_disk_model(
        self, tcp, engine
    ):
        """Each connection's ops run on its own handler thread; nothing
        in the engine's disk counter may be kept per thread."""

        def footprint():
            io = engine.rfs.io
            return [
                sys.getsizeof(io._buffer),
                sys.getsizeof(io.per_category),
                sys.getsizeof(io.per_category_logical),
            ]

        def one_dialogue():
            sock, stream = self._client(tcp)
            try:
                sid = self._roundtrip(stream, {"op": "open", "seed": 1})[
                    "value"
                ]
                for op in ("display", "abandon"):
                    reply = self._roundtrip(
                        stream, {"op": op, "session_id": sid}
                    )
                    assert reply["status"] == "ok"
            finally:
                sock.close()

        one_dialogue()
        after_one = footprint()
        for _ in range(199):
            one_dialogue()
        assert engine.rfs.io.logical_reads == 200
        assert footprint() == after_one

    def test_close_without_an_accept_loop_returns(self, engine):
        tcp = QDTCPServer(
            ("127.0.0.1", 0), QDServer(engine, ServeConfig(workers=1))
        )
        # On a daemon thread: a close() that hangs must not hang pytest.
        closer = threading.Thread(target=tcp.close, daemon=True)
        closer.start()
        closer.join(2.0)
        assert not closer.is_alive()

    def test_not_found_over_socket(self, tcp):
        sock, stream = self._client(tcp)
        try:
            response = self._roundtrip(
                stream, {"op": "abandon", "session_id": "ghost"}
            )
            assert response["status"] in ("ok", "not_found")
            # abandon of an unknown session is reported, not a crash
            assert isinstance(response["retriable"], bool)
        finally:
            sock.close()


class TestWireEdgeCases:
    """User edge cases of a dialogue, pinned at the TCP front.

    Each refusal leaves the connection usable and the session as it
    was; reply lines are compared byte for byte.
    """

    @pytest.fixture()
    def wire(self, engine):
        core = QDServer(engine, ServeConfig(workers=2))
        server = serve_tcp(core, "127.0.0.1", 0, background=True)
        sock = socket.create_connection(server.server_address[:2], timeout=5.0)
        stream = sock.makefile("rw", encoding="utf-8")

        def call(**payload):
            stream.write(json.dumps(payload) + "\n")
            stream.flush()
            return stream.readline()

        yield call
        sock.close()
        server.close()

    @staticmethod
    def _open_and_display(call, seed):
        sid = json.loads(call(op="open", seed=seed))["value"]
        shown = json.loads(call(op="display", session_id=sid, screens=2))
        assert shown["status"] == "ok"
        return sid, shown["value"]

    def test_finalize_with_nothing_marked_is_refused_and_completes(
        self, wire, database
    ):
        sid, shown = self._open_and_display(wire, 21)
        twin, _ = self._open_and_display(wire, 21)
        refused = json.loads(wire(op="finalize", session_id=sid, k=20))
        assert refused["status"] == "invalid_state"
        assert not refused["retriable"]
        marks = _mark_fn(database)(shown)
        for session_id in (sid, twin):
            marked = json.loads(
                wire(op="submit", session_id=session_id, relevant_ids=marks)
            )
            assert marked["status"] == "ok"
        final = wire(op="finalize", session_id=sid, k=20)
        assert json.loads(final)["status"] == "ok"
        assert final == wire(op="finalize", session_id=twin, k=20)

    def test_marks_not_on_screen_are_refused_and_change_nothing(
        self, wire, database
    ):
        sid, shown = self._open_and_display(wire, 22)
        twin, twin_shown = self._open_and_display(wire, 22)
        assert twin_shown == shown
        marks = _mark_fn(database)(shown)
        off_screen = next(i for i in range(N_IMAGES) if i not in shown)
        refused = json.loads(
            wire(
                op="submit", session_id=sid,
                relevant_ids=marks + [off_screen],
            )
        )
        assert refused["status"] == "invalid_state"
        assert str(off_screen) in refused["error"]
        submitted = wire(op="submit", session_id=sid, relevant_ids=marks)
        assert submitted == wire(
            op="submit", session_id=twin, relevant_ids=marks
        )
        assert json.loads(submitted)["status"] == "ok"
        final = wire(op="finalize", session_id=sid, k=30)
        assert json.loads(final)["status"] == "ok"
        assert final == wire(op="finalize", session_id=twin, k=30)

    def test_duplicate_marks_reply_as_the_deduplicated_marks(
        self, wire, database
    ):
        sid, shown = self._open_and_display(wire, 23)
        twin, _ = self._open_and_display(wire, 23)
        marks = _mark_fn(database)(shown)
        doubled = wire(
            op="submit", session_id=sid, relevant_ids=marks + marks[::-1]
        )
        assert json.loads(doubled)["status"] == "ok"
        assert doubled == wire(
            op="submit", session_id=twin, relevant_ids=marks
        )
        final = wire(op="finalize", session_id=sid, k=30)
        assert json.loads(final)["status"] == "ok"
        assert final == wire(op="finalize", session_id=twin, k=30)

    def test_marking_every_shown_id_is_ok(self, wire):
        sid, shown = self._open_and_display(wire, 24)
        marked = json.loads(
            wire(op="submit", session_id=sid, relevant_ids=shown)
        )
        assert marked["status"] == "ok"
        final = json.loads(wire(op="finalize", session_id=sid, k=30))
        assert final["status"] == "ok" and final["value"]["groups"]

    def test_marking_nothing_after_every_root_image_starts_over(
        self, wire, engine
    ):
        # Seed 21: the two screens show all 20 root representatives.
        sid, shown = self._open_and_display(wire, 21)
        twin, _ = self._open_and_display(wire, 21)
        assert sorted(shown) == sorted(engine.rfs.root.representatives)
        for session_id in (sid, twin):
            spent = wire(op="submit", session_id=session_id, relevant_ids=[])
            assert json.loads(spent)["status"] == "ok"
        # sid resumes from its stored record; twin stays the live copy.
        engine.release_session(sid)
        again = wire(op="display", session_id=sid)
        assert json.loads(again)["value"]
        assert again == wire(op="display", session_id=twin)
        mark = json.loads(again)["value"][:1]
        for session_id in (sid, twin):
            marked = wire(op="submit", session_id=session_id, relevant_ids=mark)
            assert json.loads(marked)["status"] == "ok"
        final = wire(op="finalize", session_id=sid, k=20)
        assert json.loads(final)["status"] == "ok"
        assert final == wire(op="finalize", session_id=twin, k=20)


class TestFruitlessDialogue:
    """A user who marks nothing once every root representative was shown
    browses the root again instead of being stuck with empty screens."""

    @staticmethod
    def _spent(engine, session_id):
        session = engine.open_session(seed=21, session_id=session_id)
        shown = session.display(screens=2)
        assert sorted(shown) == sorted(engine.rfs.root.representatives)
        session.submit([])
        return session

    @staticmethod
    def _ranking(result):
        return result.rounds_used, [
            (g.leaf_node_id, g.items.item_ids.tolist(),
             g.items.scores.tolist())
            for g in result.groups
        ]

    def test_display_starts_over_and_one_mark_finalizes(self, engine):
        session = self._spent(engine, "spent")
        shown = session.display()
        assert shown
        session.submit(shown[:1])
        assert session.finalize(20).groups

    def test_resume_in_the_spent_state_continues_bit_identically(
        self, engine
    ):
        live = self._spent(engine, "live")
        self._spent(engine, "suspended")
        resumed = engine.resume_session("suspended")
        screens = [s.display() for s in (live, resumed)]
        assert screens[0] and screens[0] == screens[1]
        for session in (live, resumed):
            session.submit(screens[0][:1])
        assert self._ranking(live.finalize(20)) == self._ranking(
            resumed.finalize(20)
        )


# ----------------------------------------------------------------------
# Admission: request() runs every op on the calling thread, at once
# when a slot is free and no one waits, after its turn in line otherwise
# ----------------------------------------------------------------------
class _SlotProbe:
    """Front-end stand-in that reports who is inside ``handle``.

    ``entered`` is released once per entry (so a test can wait for "N
    requests are executing" without sleeping), ``gate`` holds them
    there, ``served`` logs ``(tag, thread name)`` in execution order.
    """

    gate = threading.Event()
    entered = threading.Semaphore(0)
    lock = threading.Lock()
    inside = 0
    peak = 0
    served: list = []

    @classmethod
    def reset(cls):
        cls.gate = threading.Event()
        cls.entered = threading.Semaphore(0)
        cls.lock = threading.Lock()
        cls.inside = cls.peak = 0
        cls.served = []

    def __init__(self, engine, worker_id=""):
        del engine, worker_id

    def handle(self, op, **kwargs):
        cls = type(self)
        with cls.lock:
            cls.inside += 1
            cls.peak = max(cls.peak, cls.inside)
            cls.served.append(
                (kwargs.get("session_id"), threading.current_thread().name)
            )
        cls.entered.release()
        try:
            assert cls.gate.wait(timeout=10.0)
        finally:
            with cls.lock:
                cls.inside -= 1
        return FrontEndResult(ok=True, value=op)


def _probe_server(engine, monkeypatch, **config):
    _SlotProbe.reset()
    monkeypatch.setattr("repro.serve.server.SessionFrontEnd", _SlotProbe)
    return QDServer(engine, ServeConfig(drain_timeout_s=0.2, **config))


class TestInlineAdmission:
    def test_free_slot_serves_on_the_calling_thread(
        self, engine, monkeypatch
    ):
        server = _probe_server(engine, monkeypatch, workers=2)
        _SlotProbe.gate.set()
        try:
            me = threading.current_thread().name
            for n in range(5):
                response = server.request("display", session_id=n)
                assert response.ok and response.service_s > 0.0
            assert [name for _, name in _SlotProbe.served] == [me] * 5
        finally:
            server.close()

    def test_never_more_than_workers_inside_handle(
        self, engine, monkeypatch
    ):
        server = _probe_server(engine, monkeypatch, workers=2, queue_limit=16)
        results: dict = {}
        try:
            threads = [
                _in_thread(results, n, server.request, "display", session_id=n)
                for n in range(6)
            ]
            # Two got a slot and run on their own threads; the other
            # four wait in line for a slot, not inside handle.
            for _ in range(2):
                assert _SlotProbe.entered.acquire(timeout=5.0)
            _await(lambda: server.queue_depth == 4, "four queued requests")
            assert _SlotProbe.inside == 2
            assert not _SlotProbe.entered.acquire(timeout=0.05)
            _SlotProbe.gate.set()
            for thread in threads:
                thread.join(5.0)
            assert all(results[n].ok for n in range(6))
            # Ungated churn: takers and waiters together, same bound.
            churn = [
                threading.Thread(
                    target=lambda: [
                        server.request("display", session_id="c")
                        for _ in range(40)
                    ]
                )
                for _ in range(6)
            ]
            interval = sys.getswitchinterval()
            sys.setswitchinterval(1e-5)  # switch threads mid-admission
            try:
                for thread in churn:
                    thread.start()
                for thread in churn:
                    thread.join(30.0)
            finally:
                sys.setswitchinterval(interval)
            assert not any(thread.is_alive() for thread in churn)
            assert _SlotProbe.peak == 2
            # every op ran on the thread that brought it
            assert {name.split("-")[0] for _, name in _SlotProbe.served} == {
                "caller", "Thread"
            }
            assert server.stats["completed"] == 6 + 6 * 40
        finally:
            _SlotProbe.gate.set()
            server.close()

    def test_busy_server_queues_sheds_and_expires(self, engine, monkeypatch):
        server = _probe_server(engine, monkeypatch, workers=1, queue_limit=2)
        results: dict = {}
        try:
            holder = _in_thread(
                results, "held", server.request, "display", session_id="held"
            )
            assert _SlotProbe.entered.acquire(timeout=5.0)
            # The only slot is taken: the next two wait, one of them on
            # a deadline it cannot meet.
            doomed = _in_thread(
                results, "doomed", server.request, "display",
                session_id="doomed", deadline_s=0.5,
            )
            _await(lambda: server.queue_depth == 1, "the doomed waiter")
            waiter = _in_thread(
                results, "waiter", server.request, "display",
                session_id="waiter",
            )
            _await(lambda: server.queue_depth == 2, "a full queue")
            # queue_limit + 1: refused at once, on the calling thread.
            shed = server.request("display", session_id="shed")
            assert shed.status == "shed" and shed.retriable
            assert "queue_full" in shed.error
            # The doomed waiter is answered at its deadline, with the
            # slot still held.
            doomed.join(5.0)
            assert not doomed.is_alive() and _SlotProbe.inside == 1
            _SlotProbe.gate.set()
            for thread in (holder, waiter):
                thread.join(5.0)
            assert results["held"].ok and results["waiter"].ok
            assert results["waiter"].queue_wait_s > 0.0
            assert results["doomed"].status == "deadline_expired"
            assert results["doomed"].retriable
            assert results["doomed"].queue_wait_s > 0.0
            assert [tag for tag, _ in _SlotProbe.served] == ["held", "waiter"]
            assert server.stats == {
                "submitted": 4, "admitted": 3, "shed": 1,
                "expired": 1, "completed": 2,
            }
        finally:
            _SlotProbe.gate.set()
            server.close()

    def test_waiters_run_on_their_own_threads_in_arrival_order(
        self, engine, monkeypatch
    ):
        server = _probe_server(engine, monkeypatch, workers=1)
        results: dict = {}
        try:
            holder = _in_thread(
                results, "held", server.request, "display", session_id="held"
            )
            assert _SlotProbe.entered.acquire(timeout=5.0)
            waiters = []
            for n, tag in enumerate(("w0", "w1", "w2"), start=1):
                waiters.append(
                    _in_thread(
                        results, tag, server.request, "display",
                        session_id=tag,
                    )
                )
                _await(lambda n=n: server.queue_depth == n, f"waiter {tag}")
            _SlotProbe.gate.set()
            for thread in (holder, *waiters):
                thread.join(5.0)
            assert _SlotProbe.served == [
                (tag, f"caller-{tag}") for tag in ("held", "w0", "w1", "w2")
            ]
            assert all(results[tag].ok for tag in ("w0", "w1", "w2"))
        finally:
            _SlotProbe.gate.set()
            server.close()

    def test_waiter_expires_at_its_deadline_while_the_slot_is_held(
        self, engine, monkeypatch
    ):
        server = _probe_server(engine, monkeypatch, workers=1)
        results: dict = {}
        try:
            holder = _in_thread(
                results, "held", server.request, "display", session_id="held"
            )
            assert _SlotProbe.entered.acquire(timeout=5.0)
            doomed = _in_thread(
                results, "doomed", server.request, "display",
                session_id="doomed", deadline_s=0.05,
            )
            doomed.join(5.0)
            assert not doomed.is_alive()
            response = results["doomed"]
            assert response.status == "deadline_expired"
            assert response.retriable
            assert response.queue_wait_s >= 0.05
            # still held, and the doomed caller left the line
            assert _SlotProbe.inside == 1 and server.queue_depth == 0
            assert holder.is_alive()
            _SlotProbe.gate.set()
            holder.join(5.0)
            assert results["held"].ok
            assert [tag for tag, _ in _SlotProbe.served] == ["held"]
            assert server.stats["expired"] == 1
        finally:
            _SlotProbe.gate.set()
            server.close()

    def test_far_wire_deadline_waits_and_every_slot_comes_back(
        self, engine, monkeypatch
    ):
        """A deadline the wire accepts but a lock cannot time out on
        (above ``threading.TIMEOUT_MAX``) waits like any other."""
        server = _probe_server(engine, monkeypatch, workers=1)
        tcp = serve_tcp(server, "127.0.0.1", 0, background=True)
        results: dict = {}
        try:
            holder = _in_thread(
                results, "held", server.request, "display", session_id="held"
            )
            assert _SlotProbe.entered.acquire(timeout=5.0)
            sock = socket.create_connection(tcp.server_address[:2], timeout=5.0)
            stream = sock.makefile("rw", encoding="utf-8")
            try:
                stream.write(
                    json.dumps(
                        {"op": "display", "session_id": "far",
                         "deadline_s": 1e10}
                    )
                    + "\n"
                )
                stream.flush()
                _await(lambda: server.queue_depth == 1, "the far waiter")
                _SlotProbe.gate.set()
                assert json.loads(stream.readline())["status"] == "ok"
            finally:
                sock.close()
            holder.join(5.0)
            assert results["held"].ok
            assert [tag for tag, _ in _SlotProbe.served] == ["held", "far"]
            assert len(server._free) == 1
            assert server.drain(timeout_s=1.0) is True
        finally:
            _SlotProbe.gate.set()
            tcp.close()

    @pytest.mark.parametrize(
        "wakes", ["at_its_deadline", "handed_a_slot"]
    )
    def test_a_wait_that_raises_loses_no_slot(
        self, engine, monkeypatch, wakes
    ):
        """A waiter whose wait raises (say a KeyboardInterrupt in an
        in-process caller) leaves the line, and a slot handed to it
        goes back: every later caller still gets one."""

        class Interrupted(BaseException):
            pass

        armed = threading.Event()

        class RaisingCondition(threading.Condition):
            def wait(self, timeout=None):
                woken = super().wait(timeout)
                if armed.is_set() and threading.current_thread().name == (
                    "doomed"
                ):
                    raise Interrupted
                return woken

        monkeypatch.setattr(
            "repro.serve.server.threading",
            types.SimpleNamespace(
                Lock=threading.Lock,
                Condition=RaisingCondition,
                TIMEOUT_MAX=threading.TIMEOUT_MAX,
            ),
        )
        server = _probe_server(engine, monkeypatch, workers=1)
        results: dict = {}
        raised = []

        def doomed_caller():
            try:
                server.request(
                    "display", session_id="doomed",
                    deadline_s=0.3 if wakes == "at_its_deadline" else 30.0,
                )
            except Interrupted:
                raised.append(True)

        try:
            holder = _in_thread(
                results, "held", server.request, "display", session_id="held"
            )
            assert _SlotProbe.entered.acquire(timeout=5.0)
            doomed = threading.Thread(target=doomed_caller, name="doomed")
            doomed.start()
            _await(lambda: server.queue_depth == 1, "the doomed waiter")
            armed.set()
            if wakes == "handed_a_slot":
                _SlotProbe.gate.set()
            doomed.join(5.0)
            assert raised == [True] and server.queue_depth == 0
            _SlotProbe.gate.set()
            holder.join(5.0)
            assert results["held"].ok
            assert len(server._free) == 1
            assert server.drain(timeout_s=1.0) is True
            assert [tag for tag, _ in _SlotProbe.served] == ["held"]
        finally:
            _SlotProbe.gate.set()
            server.close(drain=False)

    def test_drain_waits_for_inline_work(self, engine, monkeypatch):
        server = _probe_server(engine, monkeypatch, workers=2)
        results: dict = {}
        holder = _in_thread(
            results, "held", server.request, "display", session_id="held"
        )
        assert _SlotProbe.entered.acquire(timeout=5.0)
        # Nothing is queued, but a request is executing on its caller.
        assert server.queue_depth == 0
        assert server.drain(timeout_s=0.05) is False
        assert server.request("display", session_id="late").status == "shed"
        _SlotProbe.gate.set()
        holder.join(5.0)
        assert results["held"].ok
        assert server.drain(timeout_s=1.0) is True
        assert server.close() is True

    def test_stats_are_exact_after_a_mixed_run(self, engine, monkeypatch):
        server = _probe_server(engine, monkeypatch, workers=2, queue_limit=3)
        _SlotProbe.gate.set()
        inline = [server.request("display", session_id=n) for n in range(7)]
        results: dict = {}
        callers = [
            _in_thread(results, n, server.request, "display", session_id=n)
            for n in range(3)
        ]
        for thread in callers:
            thread.join(5.0)
        assert all(r.ok for r in inline)
        assert all(results[n].ok for n in range(3))
        _SlotProbe.reset()  # close the gate again, keep the patched class
        results = {}
        holders = [
            _in_thread(results, n, server.request, "display", session_id=n)
            for n in range(2)
        ]
        for _ in range(2):
            assert _SlotProbe.entered.acquire(timeout=5.0)
        queued = []
        for n in range(3):
            queued.append(
                _in_thread(
                    results, f"q{n}", server.request, "display",
                    session_id="q",
                )
            )
            _await(lambda n=n: server.queue_depth == n + 1, f"waiter q{n}")
        refused = [server.request("display", session_id="r") for _ in range(2)]
        assert [r.status for r in refused] == ["shed", "shed"]
        _SlotProbe.gate.set()
        for thread in (*holders, *queued):
            thread.join(5.0)
        assert all(results[f"q{n}"].ok for n in range(3))
        assert server.close() is True
        assert server.stats == {
            "submitted": 17, "admitted": 15, "shed": 2,
            "expired": 0, "completed": 15,
        }

    def test_internal_error_inline_gives_the_slot_back(
        self, engine, monkeypatch
    ):
        calls = []

        def boom(self, op, **kwargs):
            calls.append(threading.current_thread().name)
            raise RuntimeError("kaboom")

        monkeypatch.setattr(SessionFrontEnd, "handle", boom)
        with QDServer(engine, ServeConfig(workers=1)) as server:
            for _ in range(3):
                response = server.request("open", seed=1)
                assert response.status == "internal"
            assert calls == [threading.current_thread().name] * 3


class TestDisconnectedClient:
    def test_vanished_client_costs_only_its_own_handler(
        self, engine, monkeypatch
    ):
        """A client that sends ``display`` and resets the connection
        before the reply: the failed write ends that handler quietly
        and the slot (the only one) keeps serving in-line."""
        _SlotProbe.reset()
        monkeypatch.setattr("repro.serve.server.SessionFrontEnd", _SlotProbe)
        core = QDServer(engine, ServeConfig(workers=1))
        tcp = serve_tcp(core, "127.0.0.1", 0, background=True)
        errors = []
        monkeypatch.setattr(
            tcp, "handle_error", lambda *args: errors.append(args)
        )
        try:
            sock = socket.create_connection(tcp.server_address[:2], timeout=5.0)
            sock.sendall(b'{"op": "display", "session_id": "gone"}\n')
            assert _SlotProbe.entered.acquire(timeout=5.0)
            # linger 0: close() sends a reset, so the reply has no
            # reader and the write fails
            sock.setsockopt(
                socket.SOL_SOCKET, socket.SO_LINGER,
                struct.pack("ii", 1, 0),
            )
            sock.close()
            _SlotProbe.gate.set()
            _await(lambda: _SlotProbe.inside == 0, "the orphaned op")
            survivor = socket.create_connection(
                tcp.server_address[:2], timeout=5.0
            )
            stream = survivor.makefile("rw", encoding="utf-8")
            try:
                for n in range(3):
                    stream.write(
                        json.dumps({"op": "display", "session_id": f"s{n}"})
                        + "\n"
                    )
                    stream.flush()
                    assert json.loads(stream.readline())["status"] == "ok"
            finally:
                survivor.close()
            served = dict(_SlotProbe.served)
            assert set(served) == {"gone", "s0", "s1", "s2"}
            # all four ran on their connections' handler threads
            assert all(
                "process_request_thread" in name for name in served.values()
            )
            assert errors == []
            assert core.stats["completed"] == 4
        finally:
            _SlotProbe.gate.set()
            tcp.close()


def _handler_threads():
    return [
        t for t in threading.enumerate()
        if "process_request_thread" in t.name and t.is_alive()
    ]


class TestIdleConnection:
    @pytest.mark.parametrize(
        "sent", [b"", b'{"op": "open", "se'], ids=["nothing", "half-line"]
    )
    def test_silent_client_is_dropped_and_its_handler_ends(
        self, engine, monkeypatch, sent
    ):
        monkeypatch.setattr("repro.serve.tcp.IDLE_TIMEOUT_S", 0.3)
        core = QDServer(engine, ServeConfig(workers=1))
        tcp = serve_tcp(core, "127.0.0.1", 0, background=True)
        errors = []
        monkeypatch.setattr(
            tcp, "handle_error", lambda *args: errors.append(args)
        )
        before = set(_handler_threads())

        def handlers():
            return [t for t in _handler_threads() if t not in before]

        try:
            sock = socket.create_connection(tcp.server_address[:2], timeout=5.0)
            try:
                sock.sendall(sent)
                _await(handlers, "the handler thread")
                started = time.monotonic()
                assert sock.recv(1) == b""  # closed, without a reply
                assert time.monotonic() - started < 4.0
            finally:
                sock.close()
            _await(lambda: not handlers(), "the handler to end")
            assert errors == []
            # the server still serves, on a fresh connection
            sock = socket.create_connection(tcp.server_address[:2], timeout=5.0)
            stream = sock.makefile("rw", encoding="utf-8")
            try:
                stream.write(json.dumps({"op": "open", "seed": 4}) + "\n")
                stream.flush()
                assert json.loads(stream.readline())["status"] == "ok"
            finally:
                sock.close()
        finally:
            tcp.close()

    def test_timeout_is_minutes(self):
        from repro.serve.tcp import IDLE_TIMEOUT_S

        assert 60.0 <= IDLE_TIMEOUT_S <= 3600.0


def _children(pid):
    """Pids of ``pid``'s child processes (any thread's), from /proc."""
    kids = set()
    for task in Path(f"/proc/{pid}/task").glob("*"):
        with contextlib.suppress(OSError):
            kids.update(
                int(k) for k in (task / "children").read_text().split()
            )
    return kids


@pytest.mark.skipif(
    not Path("/proc/self/task").is_dir(), reason="needs /proc"
)
class TestServeSignals:
    def test_sigterm_drains_and_exits_zero(self, database, tmp_path):
        """SIGTERM takes Ctrl-C's path — drain, close the core, close
        the engine — and the server exits 0.  The final round runs on
        the request's thread: the server never starts a child process."""
        db_path = tmp_path / "db.npz"
        database.save(db_path)
        with socket.socket() as probe:
            probe.bind(("127.0.0.1", 0))
            port = probe.getsockname()[1]
        src = str(Path(repro.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=src)
        log = open(tmp_path / "server.log", "wb")
        proc = subprocess.Popen(
            [
                sys.executable, "-m", "repro.cli", "serve",
                "--db", str(db_path), "--port", str(port),
                "--seed", str(SEED), "--session-store", "memory",
                "--serve-workers", "1",
            ],
            env=env, stdout=log, stderr=subprocess.STDOUT,
        )
        try:
            deadline = time.monotonic() + 60.0
            while True:
                assert proc.poll() is None, "server exited early"
                assert time.monotonic() < deadline, "server not ready"
                try:
                    sock = socket.create_connection(
                        ("127.0.0.1", port), timeout=30.0
                    )
                    break
                except OSError:
                    time.sleep(0.05)
            stream = sock.makefile("rw", encoding="utf-8")

            def call(payload):
                stream.write(json.dumps(payload) + "\n")
                stream.flush()
                reply = json.loads(stream.readline())
                assert reply["status"] == "ok", reply
                return reply["value"]

            sid = call({"op": "open", "seed": 4})
            shown = call({"op": "display", "session_id": sid, "screens": 2})
            # Every shown id marked: several subqueries in one round.
            call({"op": "submit", "session_id": sid, "relevant_ids": shown})
            call({"op": "finalize", "session_id": sid, "k": 30})
            assert _children(proc.pid) == set()
            # The connection stays open across the signal.
            proc.send_signal(signal.SIGTERM)
            assert proc.wait(timeout=30.0) == 0
            sock.close()
        finally:
            if proc.poll() is None:
                proc.kill()
            proc.wait()
            log.close()

    def test_port_zero_announces_the_bound_port(self, database, tmp_path):
        """``--port 0`` lets the OS pick the port; the startup line
        names the one that was bound, so a client can reach it."""
        db_path = tmp_path / "db.npz"
        database.save(db_path)
        src = str(Path(repro.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=src)
        log_path = tmp_path / "server.log"
        log = open(log_path, "wb")
        proc = subprocess.Popen(
            [
                sys.executable, "-m", "repro.cli", "serve",
                "--db", str(db_path), "--port", "0",
                "--seed", str(SEED), "--session-store", "memory",
            ],
            env=env, stdout=log, stderr=subprocess.STDOUT,
        )
        try:
            deadline = time.monotonic() + 60.0
            while " on 127.0.0.1:" not in log_path.read_text():
                assert proc.poll() is None, log_path.read_text()
                assert time.monotonic() < deadline, "no startup line"
                time.sleep(0.05)
            line = log_path.read_text().splitlines()[0]
            port = int(line.split(" on 127.0.0.1:")[1].split()[0])
            assert port != 0
            with socket.create_connection(
                ("127.0.0.1", port), timeout=30.0
            ) as sock:
                stream = sock.makefile("rw", encoding="utf-8")
                stream.write(json.dumps({"op": "open", "seed": 1}) + "\n")
                stream.flush()
                assert json.loads(stream.readline())["status"] == "ok"
            proc.send_signal(signal.SIGTERM)
            assert proc.wait(timeout=30.0) == 0
        finally:
            if proc.poll() is None:
                proc.kill()
            proc.wait()
            log.close()
