"""The pluggable session-store protocol.

A :class:`SessionStore` persists :class:`~repro.core.session_state.
SessionState` records under their session id so *any* worker can resume
*any* session, and a process restart loses nothing.  Two backends
ship (see the package docstring for the selection matrix):

* :class:`~repro.sessionstore.memory.InMemorySessionStore` — dict +
  lock; fastest, single-process only.
* :class:`~repro.sessionstore.sqlite.SQLiteSessionStore` — one WAL
  database file, safe under concurrent threads and worker processes.

The durable backend stores the record's canonical JSON text, one
:func:`encode_state` per put; the in-memory one keeps the captured
record itself (it shares nothing with the live session) and renders
that text only in :meth:`SessionStore.read_payload`.  A worker may skip
the rebuild when the stored record is the one it last wrote:
:meth:`SessionStore.put` returns the stored record and
:meth:`SessionStore.read_record` reads it back as stored, so the
serving path compares the two — by identity in memory, byte for byte in
text (:meth:`repro.core.engine.QueryDecompositionEngine.checkout_session`).
The same comparison guards every write of the serving path: ``put`` and
``delete`` take the record the op started from (``replacing=``) and
land only while the store still holds it, so of two ops racing on one
session exactly one is acknowledged and the other is refused as stale,
never silently overwritten.
The base class owns instrumentation: each operation runs inside a
``session_store`` span and feeds the ``qd_session_store_*`` metric
family, labeled by backend and operation, so checkpoint overhead is
directly visible in the obs layer.
"""

from __future__ import annotations

import abc
import contextlib
import json
import math
import time
from json.encoder import encode_basestring_ascii as _quote
from typing import Any, Callable, Dict, List, Optional, Union

from repro.core.session_state import (
    ANY_RECORD,
    STATE_FORMAT_VERSION,
    SessionState,
)
from repro.errors import (
    ConfigurationError,
    SessionCodecError,
    SessionNotFoundError,
    StaleSessionError,
)
from repro.obs import get_metrics, get_tracer


#: What :meth:`SessionStore._op_span` hands out while obs is off.
_NO_SPAN = contextlib.nullcontext()


#: Compact separators, keys in the order ``to_dict`` gives them.
_encode_json = json.JSONEncoder(separators=(",", ":")).encode

#: A stored record: its canonical text, or (in memory) the record itself.
Record = Union[str, SessionState]


#: Entries a text table holds before it starts over, so that ids no
#: record holds any more (a long-lived server's compactions renumber
#: nodes, writes add images) do not pile up.
_TABLE_LIMIT = 1 << 20


class _TextTable(dict):
    """``key -> text``, each text made once: on the first lookup of
    its key.

    Process-wide and lock-free: two threads filling the same key write
    the same text, so whichever lands is right.
    """

    def __init__(self, render: Callable[[Any], str]) -> None:
        super().__init__()
        self._render = render

    def __missing__(self, key: Any) -> str:
        if len(self) >= _TABLE_LIMIT:
            self.clear()
        text = self[key] = self._render(key)
        return text


#: The text of an int (an id, a round, a version).
_int_text = _TextTable(int.__repr__).__getitem__
#: The text of a screen entry, ``(image id, owner node id) -> "id":node``.
_entry_text = _TextTable(
    lambda entry: f'"{_int_text(entry[0])}":{_int_text(entry[1])}'
).__getitem__

_BOOL_TEXT = {True: "true", False: "false"}
_FLOAT_SPECIALS = {math.inf: "Infinity", -math.inf: "-Infinity"}


def _ids(ids) -> str:
    """A JSON array body: the ids' text, comma-joined."""
    return ",".join(map(_int_text, ids))


def _float(value: float) -> str:
    """``value`` as the JSON encoder writes a float."""
    if value != value:
        return "NaN"
    return _FLOAT_SPECIALS.get(value) or repr(value)


def encode_state(state: SessionState) -> str:
    """Serialize a session record to its canonical JSON text.

    Canonical means compact and sorted-key: exactly
    ``json.dumps(state.to_dict(), separators=(",", ":"))``.  It is
    written in one pass over a fixed key skeleton: ids and screen
    entries come from tables that format each once per process, and
    only ``rng_state`` and ``extra`` go through the JSON encoder.
    """
    # A closing quote sorts before any character of an int, so the
    # entries' order is their keys' order as strings.
    screen = ",".join(sorted(map(_entry_text, state.display_owner.items())))
    active = ",".join(
        [
            f'{{"marked":[{_ids(sub.marked)}],'
            f'"node_id":{_int_text(sub.node_id)},'
            f'"shown":[{_ids(sub.shown)}]}}'
            for sub in state.active
        ]
    )
    return (
        f'{{"active":[{active}],'
        f'"awaiting_feedback":{_BOOL_TEXT[state.awaiting_feedback]},'
        f'"config_fingerprint":'
        f"{_quote(state.config_fingerprint)},"
        f'"created_unix":{_float(state.created_unix)},'
        f'"display_owner":{{{screen}}},'
        f'"extra":{_encode_json(state.extra) if state.extra else "{}"},'
        f'"finalized":{_BOOL_TEXT[state.finalized]},'
        f'"marked":[{_ids(state.marked)}],'
        f'"rng_state":{_encode_json(state.rng_state)},'
        f'"round":{_int_text(state.round)},'
        f'"session_id":{_quote(state.session_id)},'
        f'"state_format":{STATE_FORMAT_VERSION},'
        f'"structure_version":{_int_text(state.structure_version)},'
        f'"updated_unix":{_float(state.updated_unix)}}}'
    )


def decode_state(text: str) -> SessionState:
    """Parse canonical JSON text back into a session record."""
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise SessionCodecError(
            f"session record is not valid JSON ({exc})"
        ) from exc
    return SessionState.from_dict(data)


class SessionStore(abc.ABC):
    """Persistence protocol for externalized session state.

    Subclasses implement the ``_``-prefixed primitives over their
    backing; the public methods wrap them with tracing and metrics.
    All public methods are safe to call from concurrent threads (each
    backend brings its own locking) and raise
    :class:`~repro.errors.SessionStoreError` subclasses on failure.
    """

    #: Backend label used in metrics and the CLI ``--session-store`` flag.
    kind: str = "abstract"

    # -- public instrumented API ---------------------------------------
    def put(
        self, state: SessionState, *, replacing: Any = ANY_RECORD
    ) -> Record:
        """Checkpoint ``state`` (upsert by ``state.session_id``).

        Returns the record now stored for the session — exactly what
        :meth:`read_record` yields until someone writes it again.
        ``replacing`` makes the write conditional: it lands only while
        the stored record is still that one (a record this store
        returned; ``None``: no record at all), else
        :class:`~repro.errors.StaleSessionError` is raised and nothing
        changes.
        """
        record = self._keep(state)
        with self._op_span("put", state.session_id):
            stored = self._put(
                state.session_id, record, state.updated_unix, replacing
            )
        if stored is False:
            raise StaleSessionError(
                f"session {state.session_id!r} was written by another "
                "request since this one read it; nothing was changed"
            )
        return record if stored is None else stored

    def read_record(self, session_id: str) -> Optional[Record]:
        """The record of ``session_id`` as stored, ``None`` if absent.

        Instrumented as a ``get``: it is the same backend read, only
        without the decode.
        """
        with self._op_span("get", session_id):
            return self._get(session_id)

    def read_payload(self, session_id: str) -> Optional[str]:
        """The stored text of ``session_id`` undecoded, ``None`` if absent."""
        return self.read_record(session_id)

    def get(self, session_id: str) -> SessionState:
        """Load the record stored under ``session_id``.

        Raises :class:`~repro.errors.SessionNotFoundError` when absent.
        """
        payload = self.read_payload(session_id)
        if payload is None:
            raise SessionNotFoundError(
                f"no session {session_id!r} in {self.kind} store"
            )
        return decode_state(payload)

    def delete(
        self, session_id: str, *, replacing: Any = ANY_RECORD
    ) -> bool:
        """Remove a record; returns whether one was removed.

        With ``replacing`` only that record is removed: a session
        rewritten since it was read stays, and ``False`` is returned.
        """
        with self._op_span("delete", session_id):
            return self._delete(session_id, replacing)

    def list_ids(self) -> List[str]:
        """Ids of every stored session, sorted."""
        with self._op_span("list", None):
            return sorted(self._list_ids())

    def sweep_expired(
        self, ttl_s: float, *, now: Optional[float] = None
    ) -> List[str]:
        """Delete sessions idle longer than ``ttl_s``; returns their ids.

        Staleness is judged by each record's ``updated_unix`` stamp
        (its last checkpoint), not filesystem metadata, so the sweep
        behaves identically across backends.  ``ttl_s`` must be a
        positive finite number of seconds: a zero, negative or infinite
        TTL would reap every live session (or none, for NaN), so it is
        refused with :class:`~repro.errors.ConfigurationError` before
        anything is deleted.
        """
        if not (math.isfinite(ttl_s) and ttl_s > 0):
            raise ConfigurationError(
                f"session ttl_s must be a positive finite number, got "
                f"{ttl_s}"
            )
        cutoff = (time.time() if now is None else now) - ttl_s
        with self._op_span("sweep", None):
            swept = self._sweep(cutoff)
        if swept:
            get_metrics().counter(
                "qd_sessions_expired_total",
                "sessions removed by TTL sweeps",
                labels={"backend": self.kind},
            ).inc(len(swept))
        return sorted(swept)

    def close(self) -> None:
        """Release backend resources (safe to call twice)."""

    def __enter__(self) -> "SessionStore":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    def __len__(self) -> int:
        return len(self.list_ids())

    # -- backend primitives --------------------------------------------
    def _keep(self, state: SessionState) -> Record:
        """What this backend stores for ``state``: its text."""
        return self._encode(state)

    def _encode(self, state: SessionState) -> str:
        """:func:`encode_state`, observed as ``qd_session_state_bytes``."""
        payload = encode_state(state)
        metrics = get_metrics()
        if metrics.enabled:
            metrics.histogram(
                "qd_session_state_bytes",
                "encoded size of checkpointed session records",
                labels={"backend": self.kind},
            ).observe(len(payload))
        return payload

    @abc.abstractmethod
    def _put(
        self,
        session_id: str,
        record: Record,
        updated_unix: float,
        replacing: Any,
    ) -> Union[Record, None, bool]:
        """Upsert the record :meth:`_keep` made, if ``replacing`` allows.

        ``False`` when the stored record is not ``replacing`` (unless
        that is :data:`~repro.core.session_state.ANY_RECORD`) and
        nothing was written.  Otherwise a backend that stores a
        re-formatted text returns what :meth:`_get` will read back; the
        others return ``None`` (``record`` is stored as it is).
        """

    @abc.abstractmethod
    def _get(self, session_id: str) -> Optional[Record]:
        """Stored record, or ``None`` when absent."""

    @abc.abstractmethod
    def _delete(self, session_id: str, replacing: Any = ANY_RECORD) -> bool:
        """Remove the record (only ``replacing``, unless that is
        :data:`~repro.core.session_state.ANY_RECORD`); return whether
        one was removed."""

    @abc.abstractmethod
    def _list_ids(self) -> List[str]:
        """All stored session ids (any order)."""

    def _sweep(self, cutoff_unix: float) -> List[str]:
        """Delete records with ``updated_unix < cutoff``; default scans.

        Backends that keep the stamp in a column of its own (SQLite)
        override this with a single query.
        """
        swept: List[str] = []
        for session_id in self._list_ids():
            payload = self._get(session_id)
            if payload is None:  # concurrently deleted mid-sweep
                continue
            try:
                stamp = float(json.loads(payload).get("updated_unix", 0.0))
            except (json.JSONDecodeError, TypeError, ValueError):
                continue  # leave corrupt records for a human to inspect
            if stamp < cutoff_unix and self._delete(session_id):
                swept.append(session_id)
        return swept

    # -- instrumentation helpers ---------------------------------------
    def _op_span(self, op: str, session_id: Optional[str]):
        """Context manager recording one store operation."""
        metrics = get_metrics()
        tracer = get_tracer()
        if not (metrics.enabled or tracer.enabled):
            return _NO_SPAN
        return self._recorded_op(op, session_id, metrics, tracer)

    @contextlib.contextmanager
    def _recorded_op(self, op, session_id, metrics, tracer):
        labels = {"backend": self.kind, "op": op}
        metrics.counter(
            "qd_session_store_ops_total",
            "session-store operations",
            labels=labels,
        ).inc()
        attrs: Dict[str, object] = dict(labels)
        if session_id is not None:
            attrs["session"] = session_id
        start = time.perf_counter()
        with tracer.span("session_store", **attrs):
            yield
        metrics.histogram(
            "qd_session_store_seconds",
            "session-store operation latency",
            labels=labels,
        ).observe(time.perf_counter() - start)
