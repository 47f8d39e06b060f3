"""Tests for the concurrent serving stack (repro.serve).

Covers the new config validation (ServeConfig bounds, session ttl),
the structured :class:`FrontEndResult` surface of ``SessionFrontEnd``
(including stale-session signalling as a retriable response), the
``QDServer`` admission control (load shedding, deadlines, graceful
drain, stats/metrics) and the JSON-lines TCP front.
"""

from __future__ import annotations

import json
import socket
import threading
import time

import numpy as np
import pytest

from repro.config import QDConfig, RFSConfig, ServeConfig, SessionStoreConfig
from repro.core import SessionFrontEnd
from repro.core.clientserver import FrontEndResult
from repro.core.engine import QueryDecompositionEngine
from repro.datasets.build import build_synthetic_database
from repro.errors import ConfigurationError
from repro.serve import QDServer, serve_tcp
from repro.sessionstore import InMemorySessionStore

N_IMAGES = 400
SEED = 1129
RFS_CONFIG = RFSConfig(
    node_max_entries=40, node_min_entries=16, leaf_subclusters=3
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
            {"shards": -1},
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
    def test_session_ttl_rejects_non_positive(self, ttl):
        with pytest.raises(ConfigurationError):
            SessionStoreConfig(ttl_s=ttl)


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

    def __init__(self, engine, worker_id=""):
        del engine, worker_id

    def handle(self, op, **kwargs):
        del op, kwargs
        assert self.gate.wait(timeout=10.0)
        return FrontEndResult(ok=True, value="done")


@pytest.fixture()
def gated_server(engine, monkeypatch):
    _GatedFrontEnd.gate = threading.Event()
    monkeypatch.setattr(
        "repro.serve.server.SessionFrontEnd", _GatedFrontEnd
    )
    server = QDServer(
        engine, ServeConfig(workers=1, queue_limit=2, drain_timeout_s=0.2)
    )
    yield server
    _GatedFrontEnd.gate.set()
    server.close(drain=False)


def _occupy_worker(server):
    """Park the single worker inside the gated front-end."""
    future = server.submit("display", session_id="x")
    deadline = time.monotonic() + 5.0
    while server.queue_depth > 0 and time.monotonic() < deadline:
        time.sleep(0.001)
    return future


class TestQDServer:
    def test_requires_session_store(self, database):
        with QueryDecompositionEngine.build(
            database, RFS_CONFIG, QDConfig(), seed=SEED
        ) as bare:
            with pytest.raises(ConfigurationError):
                QDServer(bare)

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
        running = _occupy_worker(gated_server)
        queued = [gated_server.submit("display", session_id="x") for _ in range(2)]
        shed = gated_server.submit("display", session_id="x")
        response = shed.result(timeout=1.0)  # resolved without a worker
        assert response.status == "shed"
        assert response.retriable
        assert "queue_full" in response.error
        assert gated_server.stats["shed"] == 1
        _GatedFrontEnd.gate.set()
        assert running.result(timeout=5.0).ok
        assert all(f.result(timeout=5.0).ok for f in queued)
        assert gated_server.stats["admitted"] == 3

    def test_deadline_expires_in_queue(self, gated_server):
        _occupy_worker(gated_server)
        doomed = gated_server.submit(
            "display", session_id="x", deadline_s=0.01
        )
        time.sleep(0.05)
        _GatedFrontEnd.gate.set()
        response = doomed.result(timeout=5.0)
        assert response.status == "deadline_expired"
        assert response.retriable
        assert response.queue_wait_s > 0.0
        assert gated_server.stats["expired"] == 1

    def test_draining_sheds_new_requests(self, engine):
        server = QDServer(engine, ServeConfig(workers=1))
        assert server.drain() is True
        response = server.submit("display", session_id="x").result(1.0)
        assert response.status == "shed"
        assert "draining" in response.error
        assert not server.accepting
        assert server.close() is True

    def test_close_reports_unfinished_drain(self, gated_server):
        _occupy_worker(gated_server)
        gated_server.submit("display", session_id="x")
        assert gated_server.drain(timeout_s=0.05) is False

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
