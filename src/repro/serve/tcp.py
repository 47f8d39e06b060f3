"""A JSON-lines TCP front for :class:`~repro.serve.server.QDServer`.

One request per line, one response per line — deliberately minimal (no
HTTP dependency; the repo's rule is stdlib-only).  Each connection gets
a handler thread (:class:`socketserver.ThreadingTCPServer`), which runs
each op itself through :meth:`QDServer.request`, waiting in the core's
bounded line when every execution slot is taken — every op needs a
slot, so connection count never defeats admission control.

Request object::

    {"op": "open" | "display" | "submit" | "finalize" | "abandon"
           | "insert" | "remove",
     "session_id": "...",        # session ops (not insert/remove/open)
     "seed": 7,                  # open (optional)
     "screens": 2,               # display (optional)
     "relevant_ids": [3, 17],    # submit
     "k": 50,                    # finalize
     "vector": [0.1, ...],       # insert (one feature row)
     "image_id": 42,             # remove
     "deadline_s": 5.0}          # any op (optional)

Each field is checked against :data:`_FIELD_RULES` before the request
reaches the admission queue, and a value that breaks its rule is
answered ``invalid_request`` naming the field: integers are JSON
integers (not floats, strings or booleans) below 2**53 in magnitude,
``k`` and ``screens`` are at least 1, ``seed`` is a non-negative
integer or null, ``deadline_s`` a finite number >= 0, ``session_id`` a
string, ``relevant_ids`` a list of integers and ``vector`` a list of
finite numbers.  No rule admits ``NaN`` or ``Infinity``.

The mutation ops (``insert``/``remove``) pass the same admission
control as queries — sustained mixed read/write traffic shares
one overload policy (shedding, deadlines, drain).

A request line longer than :data:`MAX_REQUEST_LINE_BYTES` is answered
with ``invalid_request`` and the connection is closed (its remainder
could only be skipped by reading it all).  A connection that sends
nothing — not a byte, or not the rest of a line — for
:data:`IDLE_TIMEOUT_S` is closed without a reply, which ends its
handler thread.

Response object mirrors :class:`~repro.serve.server.ServerResponse`:
``{"status": ..., "retriable": ..., "error": ..., "value": ...}`` with
``value`` JSON-safe (a finalize result becomes ``{"rounds_used",
"groups": [{"leaf_node_id", "search_node_id", "items": [[id, score],
...]}]}``).
"""

from __future__ import annotations

import json
import math
import reprlib
import socketserver
import threading
from typing import Any, Callable, Dict, Optional, Tuple

from repro.serve.server import QDServer, ServerResponse

#: Longest request line the server reads into memory.  Four orders of
#: magnitude above a real request (an ``insert`` row is ~1 KB) and far
#: below what would strain a handler thread.
MAX_REQUEST_LINE_BYTES = 1 << 20

#: Seconds a connection may stay silent before the server closes it.
#: Minutes: long beyond any client between two requests of a dialogue,
#: short enough that abandoned connections do not pile up threads.
IDLE_TIMEOUT_S = 300.0

#: Arguments each op forwards to the front-end (anything else in the
#: request object is rejected before touching the admission queue).
_OP_ARGS: Dict[str, Tuple[str, ...]] = {
    "open": ("seed", "session_id"),
    "display": ("session_id", "screens"),
    "submit": ("session_id", "relevant_ids"),
    "finalize": ("session_id", "k"),
    "abandon": ("session_id",),
    "insert": ("vector",),
    "remove": ("image_id",),
}


#: Integers a request may carry: the range in which JSON numbers are
#: exact across implementations (RFC 8259 section 6, 2**53 - 1).  A
#: ``k`` beyond it is no longer an exact number of results.
_SAFE_INT = 2**53 - 1


def _integer(value: Any, low: int = -_SAFE_INT) -> bool:
    # A JSON integer decodes to int; true/false decode to bool.
    return type(value) is int and low <= value <= _SAFE_INT


def _finite(value: Any) -> bool:
    return type(value) in (int, float) and math.isfinite(value)


#: What every request field must hold, and how the refusal says so.
#: Checked on the handler thread, before the admission queue: a value
#: the front-end would coerce (1.7 -> 1, true -> 1, "39" -> 39) or
#: choke on (Infinity, NaN) never reaches it.  Every rule refuses a
#: non-finite number, so the non-standard ``NaN`` / ``Infinity`` that
#: ``json.loads`` accepts are refused here, naming their field, at no
#: cost to the decode of a well-formed line.
_FIELD_RULES: Dict[str, Tuple[Callable[[Any], bool], str]] = {
    "session_id": (lambda v: type(v) is str, "a string"),
    "seed": (
        lambda v: v is None or _integer(v, 0),
        "null or an integer in [0, 2**53)",
    ),
    "screens": (lambda v: _integer(v, 1), "an integer in [1, 2**53)"),
    "k": (lambda v: _integer(v, 1), "an integer in [1, 2**53)"),
    "image_id": (_integer, "an integer in (-2**53, 2**53)"),
    "relevant_ids": (
        lambda v: type(v) is list and all(map(_integer, v)),
        "a list of integers in (-2**53, 2**53)",
    ),
    "vector": (
        lambda v: type(v) is list and all(map(_finite, v)),
        "a list of finite numbers",
    ),
    "deadline_s": (lambda v: _finite(v) and v >= 0, "a finite number >= 0"),
}


def _json_value(value: Any) -> Any:
    """Fold a front-end return value into JSON-safe data."""
    groups = getattr(value, "groups", None)
    if groups is not None:  # a QueryResult
        return {
            "groups": [
                {
                    # [id, score] pairs (JSON writes a tuple as a list)
                    "items": list(
                        zip(
                            group.items.item_ids.tolist(),
                            group.items.scores.tolist(),
                        )
                    ),
                    "leaf_node_id": group.leaf_node_id,
                    "search_node_id": group.search_node_id,
                }
                for group in groups
            ],
            "rounds_used": value.rounds_used,
        }
    return value


def response_to_json(response: ServerResponse) -> str:
    """One response line (no trailing newline), keys in sorted order.

    The dicts here and in :func:`_json_value` are written with their
    keys already sorted, so the encoder does not sort them again.
    """
    return json.dumps(
        {
            "error": response.error,
            "op": response.op,
            "retriable": response.retriable,
            "status": response.status,
            "value": _json_value(response.value),
        }
    )


class _Handler(socketserver.StreamRequestHandler):
    def setup(self) -> None:
        # Read at connect time, so a changed module constant applies.
        self.timeout = IDLE_TIMEOUT_S
        super().setup()

    def _reply(self, response: ServerResponse) -> None:
        self.wfile.write((response_to_json(response) + "\n").encode())
        self.wfile.flush()

    def handle(self) -> None:  # pragma: no cover - exercised via client
        try:
            self._serve_lines()
        except (BrokenPipeError, ConnectionResetError):
            # The client went away mid-dialogue: nobody is left to
            # answer, and the op (if any) already gave its slot back.
            return
        except TimeoutError:
            # Silent for IDLE_TIMEOUT_S: drop the connection quietly.
            return

    def _serve_lines(self) -> None:
        server: "QDTCPServer" = self.server  # type: ignore[assignment]
        while True:
            raw = self.rfile.readline(MAX_REQUEST_LINE_BYTES + 1)
            if not raw:
                return
            if len(raw) > MAX_REQUEST_LINE_BYTES:
                self._reply(
                    ServerResponse(
                        op="?",
                        status="invalid_request",
                        error=(
                            "request line exceeds "
                            f"{MAX_REQUEST_LINE_BYTES} bytes"
                        ),
                    )
                )
                return
            line = raw.strip()
            if line:
                # No local keeps the reply: an idle connection must not
                # pin its last result (a k = 1200 finalize) for minutes.
                self._reply(self._respond(server, line))

    @staticmethod
    def _respond(server: "QDTCPServer", line: bytes) -> ServerResponse:
        try:
            return server.core_request(json.loads(line))
        # RecursionError: a line nested deeper than the decoder's stack.
        except (ValueError, TypeError, RecursionError) as exc:
            return ServerResponse(
                op="?", status="invalid_request", error=str(exc)
            )


class QDTCPServer(socketserver.ThreadingTCPServer):
    """Serve a :class:`QDServer` over newline-delimited JSON."""

    daemon_threads = True
    allow_reuse_address = True

    def __init__(self, address: Tuple[str, int], core: QDServer) -> None:
        super().__init__(address, _Handler)
        self.core = core
        #: The thread running the accept loop, once serve_background ran.
        self._accept_loop: Optional[threading.Thread] = None

    def core_request(self, payload: Dict[str, Any]) -> ServerResponse:
        """Validate one decoded request and run it through the core."""
        if not isinstance(payload, dict):
            # Valid JSON, but an array or a scalar: no fields to read.
            return ServerResponse(
                op="?",
                status="invalid_request",
                error="a request must be a JSON object, got "
                f"{type(payload).__name__}",
            )
        op = payload.get("op")
        if type(op) is not str or op not in _OP_ARGS:
            return ServerResponse(
                op=str(op),
                status="invalid_request",
                error=f"unknown op {op!r} (expected one of "
                f"{sorted(_OP_ARGS)})",
            )
        allowed = _OP_ARGS[op]
        unknown = set(payload) - set(allowed) - {"op", "deadline_s"}
        if unknown:
            return ServerResponse(
                op=op,
                status="invalid_request",
                error=f"unexpected fields for {op}: {sorted(unknown)}",
            )
        kwargs = {key: payload[key] for key in allowed if key in payload}
        for field, value in payload.items():
            if field == "op":
                continue
            check, wants = _FIELD_RULES[field]
            if not check(value):
                return ServerResponse(
                    op=op,
                    status="invalid_request",
                    error=f"{field} must be {wants}, got "
                    f"{reprlib.repr(value)}",
                )
        if op in ("display", "submit", "finalize", "abandon") and (
            "session_id" not in kwargs
        ):
            return ServerResponse(
                op=op,
                status="invalid_request",
                error=f"{op} needs a session_id",
            )
        required = {"insert": "vector", "remove": "image_id"}.get(op)
        if required is not None and required not in kwargs:
            return ServerResponse(
                op=op,
                status="invalid_request",
                error=f"{op} needs a {required}",
            )
        return self.core.request(
            op, deadline_s=payload.get("deadline_s"), **kwargs
        )

    def serve_background(self) -> threading.Thread:
        """Run ``serve_forever`` on a daemon thread; returns it."""
        self._accept_loop = threading.Thread(
            target=self.serve_forever,
            name="qd-tcp-accept",
            daemon=True,
        )
        self._accept_loop.start()
        return self._accept_loop

    def serve_until_interrupted(self) -> None:
        """Run ``serve_forever`` on this thread until ``KeyboardInterrupt``,
        then close the socket and drain the core."""
        try:
            self.serve_forever()
        except KeyboardInterrupt:
            pass
        finally:
            self.server_close()
            self.core.close()

    def close(self) -> None:
        """Stop accepting, close the socket, drain the core."""
        # shutdown() waits for a running serve_forever: with no accept
        # loop started it would wait forever.
        if self._accept_loop is not None:
            self.shutdown()
            self._accept_loop = None
        self.server_close()
        self.core.close()


def serve_tcp(
    core: QDServer,
    host: str = "127.0.0.1",
    port: int = 0,
    *,
    background: bool = False,
) -> QDTCPServer:
    """Bind and start a TCP front over ``core``.

    With ``background=True`` the accept loop runs on a daemon thread
    and the (bound) server is returned immediately — ``server_address``
    carries the OS-assigned port when ``port=0``.  Otherwise this
    blocks in ``serve_forever`` until interrupted.
    """
    server = QDTCPServer((host, port), core)
    if background:
        server.serve_background()
    else:
        server.serve_until_interrupted()
    return server


__all__ = ["QDTCPServer", "response_to_json", "serve_tcp"]
