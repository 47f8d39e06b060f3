"""The JSON-lines wire: argument rules, held replies, and a fuzzer.

Every request field has one rule (``repro.serve.tcp._FIELD_RULES``); a
value that breaks it is answered ``invalid_request`` naming the field,
before the admission queue, so nothing the front-end would coerce
(``1.7`` -> image 1, ``true`` -> k = 1, ``"39"`` -> image 39) reaches
it.  After any refusal the connection keeps serving and no session
record or index count has changed.  The fuzzer holds ``core_request``
and a live socket to that for arbitrary JSON requests and raw bytes.
"""

from __future__ import annotations

import contextlib
import gc
import json
import socket
import time
import weakref

import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from repro.config import MutationConfig, QDConfig, RFSConfig, ServeConfig
from repro.core.clientserver import SessionFrontEnd
from repro.core.engine import QueryDecompositionEngine
from repro.datasets.build import build_synthetic_database
from repro.serve import QDServer, serve_tcp
from repro.serve.tcp import _OP_ARGS
from repro.sessionstore import InMemorySessionStore

SEED = 1129


@pytest.fixture(scope="module")
def engine():
    database = build_synthetic_database(400, n_categories=30, seed=SEED)
    with QueryDecompositionEngine.build(
        database,
        RFSConfig(node_max_entries=40, leaf_subclusters=3),
        QDConfig(),
        seed=SEED,
        mutations=MutationConfig(),
    ) as eng:
        eng.attach_session_store(InMemorySessionStore())
        yield eng


@pytest.fixture(scope="module")
def tcp(engine):
    server = serve_tcp(
        QDServer(engine, ServeConfig(workers=2)), "127.0.0.1", 0,
        background=True,
    )
    yield server
    server.close()


class Client:
    def __init__(self, server) -> None:
        self.sock = socket.create_connection(
            server.server_address[:2], timeout=10.0
        )
        self.stream = self.sock.makefile("rwb")

    def send(self, line: bytes) -> bytes:
        self.stream.write(line + b"\n")
        self.stream.flush()
        return self.stream.readline()

    def call(self, **payload):
        return json.loads(self.send(json.dumps(payload).encode()))

    def close(self) -> None:
        self.stream.close()
        self.sock.close()


@pytest.fixture()
def client(tcp):
    conn = Client(tcp)
    yield conn
    conn.close()


def _state(engine):
    """Every session record and the index counts, for before/after."""
    store = engine.session_store
    records = {sid: store.read_payload(sid) for sid in store.list_ids()}
    mutations = engine.mutations
    return records, mutations.n_items, mutations.delta_size


def _awaiting_marks(client):
    """An open session with a screen on display: (id, shown ids)."""
    sid = client.call(op="open", seed=4)["value"]
    shown = client.call(op="display", session_id=sid)["value"]
    return sid, shown


# One case per argument the front-end used to coerce or choke on.
REFUSED = [
    ("remove", '{{"op": "remove", "image_id": 1.7}}', "image_id"),
    ("k_true", '{{"op": "finalize", "session_id": "{sid}", "k": true}}',
     "k"),
    ("k_infinity",
     '{{"op": "finalize", "session_id": "{sid}", "k": Infinity}}',
     "k"),
    ("k_fraction", '{{"op": "finalize", "session_id": "{sid}", "k": 1.5}}',
     "k"),
    ("ids_mixed",
     '{{"op": "submit", "session_id": "{sid}", '
     '"relevant_ids": ["{a}", {b}.0]}}',
     "relevant_ids"),
    ("ids_object",
     '{{"op": "submit", "session_id": "{sid}", '
     '"relevant_ids": {{"{a}": 1}}}}',
     "relevant_ids"),
    ("ids_string",
     '{{"op": "submit", "session_id": "{sid}", "relevant_ids": "{a}"}}',
     "relevant_ids"),
    ("screens_true",
     '{{"op": "display", "session_id": "{sid}", "screens": true}}',
     "screens"),
    ("deadline_nan",
     '{{"op": "abandon", "session_id": "{sid}", "deadline_s": NaN}}',
     "deadline_s"),
    ("session_id_int", '{{"op": "open", "session_id": 123}}', "session_id"),
]


@pytest.mark.parametrize(
    "line, field", [case[1:] for case in REFUSED],
    ids=[case[0] for case in REFUSED],
)
def test_coerced_argument_is_refused_and_changes_nothing(
    engine, client, line, field
):
    sid, shown = _awaiting_marks(client)
    if "{sid}" in line and "finalize" in line:
        # A finalize needs marks to get past the session's own checks.
        assert client.call(
            op="submit", session_id=sid, relevant_ids=shown[:2]
        )["status"] == "ok"
    before = _state(engine)
    request = line.format(sid=sid, a=shown[0], b=shown[1])
    response = json.loads(client.send(request.encode()))
    assert response["status"] == "invalid_request", response
    assert response["error"].startswith(f"{field} must be")
    assert _state(engine) == before
    # ... and the same connection keeps serving.
    assert client.call(op="abandon", session_id=sid)["status"] == "ok"


def test_an_idle_connection_does_not_hold_its_last_reply(
    client, monkeypatch
):
    results = []
    finalize = SessionFrontEnd.finalize

    def tracked(self, session_id, k):
        result = finalize(self, session_id, k)
        results.append(weakref.ref(result))
        return result

    monkeypatch.setattr(SessionFrontEnd, "finalize", tracked)
    sid, shown = _awaiting_marks(client)
    client.call(op="submit", session_id=sid, relevant_ids=shown[:3])
    reply = client.call(op="finalize", session_id=sid, k=200)
    assert reply["status"] == "ok" and len(results) == 1
    # The connection stays open and silent; its handler waits for the
    # next line and must have let the result go.
    deadline = time.monotonic() + 5.0
    while results[0]() is not None and time.monotonic() < deadline:
        gc.collect()
        time.sleep(0.01)
    assert results[0]() is None


# ----------------------------------------------------------------------
# the fuzzer
# ----------------------------------------------------------------------
JSON_VALUES = st.recursive(
    st.none()
    | st.booleans()
    | st.integers()
    | st.floats()
    | st.text(max_size=8),
    lambda children: st.lists(children, max_size=4)
    | st.dictionaries(st.text(max_size=6), children, max_size=3),
    max_leaves=8,
)
FIELDS = sorted({field for args in _OP_ARGS.values() for field in args})


def _plausible(field, sid, shown):
    """Values of the right shape, so requests get past the wire too."""
    ids = st.sampled_from(shown) | st.integers(-2, 500)
    return {
        "session_id": st.just(sid) | st.text(max_size=8),
        "seed": st.none() | st.integers(-1, 2**53),
        "screens": st.integers(-1, 4),
        "k": st.integers(-1, 1500),
        "image_id": st.integers(-2, 500),
        "relevant_ids": st.lists(ids, max_size=6),
        "vector": st.lists(
            st.floats(-10, 10) | st.integers(-3, 3), min_size=36,
            max_size=38,
        ),
        "deadline_s": st.floats(0, 10) | st.just(0),
    }[field]


@st.composite
def requests(draw, sid, shown):
    """A request object: mostly a real op, fields of any shape."""
    if draw(st.integers(0, 9)):
        op = draw(st.sampled_from(sorted(_OP_ARGS)))
    else:
        op = draw(JSON_VALUES)
    payload = {"op": op}
    fields = _OP_ARGS.get(op, ()) if isinstance(op, str) else ()
    for field in (*fields, "deadline_s"):
        if draw(st.booleans()):
            payload[field] = draw(
                _plausible(field, sid, shown)
                if draw(st.integers(0, 3))
                else JSON_VALUES
            )
    if not draw(st.integers(0, 9)):
        payload[draw(st.sampled_from(FIELDS) | st.text(max_size=6))] = draw(
            JSON_VALUES
        )
    return payload


FUZZ = settings(
    max_examples=120,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


@contextlib.contextmanager
def _session_on_display(tcp):
    """A session on display for one example, abandoned after it."""
    sid = tcp.core_request({"op": "open", "seed": 4}).value
    shown = tcp.core_request({"op": "display", "session_id": sid}).value
    try:
        yield sid, shown
    finally:
        tcp.core_request({"op": "abandon", "session_id": sid})


def _check(engine, response_status, before):
    assert response_status != "internal"
    if response_status != "ok":
        assert _state(engine) == before


@FUZZ
@given(data=st.data())
def test_fuzzed_requests_in_process(engine, tcp, data):
    with _session_on_display(tcp) as (sid, shown):
        payload = data.draw(requests(sid, shown))
        before = _state(engine)
        response = tcp.core_request(payload)
        _check(engine, response.status, before)


@FUZZ
@given(data=st.data())
def test_fuzzed_request_lines_over_a_socket(engine, tcp, data):
    conn = Client(tcp)
    try:
        with _session_on_display(tcp) as (sid, shown):
            payload = data.draw(requests(sid, shown))
            before = _state(engine)
            reply = conn.send(json.dumps(payload).encode())
            assert reply, "connection closed on a one-line request"
            _check(engine, json.loads(reply)["status"], before)
    finally:
        conn.close()


@FUZZ
@given(line=st.binary(max_size=120))
def test_fuzzed_bytes_over_a_socket(engine, tcp, line):
    line = line.replace(b"\n", b"")
    assume(line.strip())  # a blank line is skipped, not answered
    conn = Client(tcp)
    try:
        before = _state(engine)
        reply = conn.send(line)
        if reply:  # or a clean close
            _check(engine, json.loads(reply)["status"], before)
    finally:
        conn.close()
