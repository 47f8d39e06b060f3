"""SQLite session store: one WAL database shared by many workers.

The durable default for a multi-worker deployment on one host.  WAL
journaling lets readers proceed while a writer commits, and a generous
``busy_timeout`` makes concurrent checkpoint bursts block briefly
instead of failing; every statement runs in autocommit so no worker
ever holds a long transaction.

Connections are pooled: an operation takes one from a last-in-first-out
free-list (opening one only when the list is empty) and puts it back
when done, so the store holds as many connections as it ever had
operations in flight at once — not one per thread that ever touched it,
which leaks a file descriptor per short-lived thread (the TCP front runs
ops on its per-connection handler threads).  A
conditional write (``replacing=``) is one statement that names the
record it replaces: ``UPDATE … WHERE session_id = ? AND payload = ?``
(``INSERT … DO NOTHING`` when it expects none), so it is atomic across
threads and processes.
"""

from __future__ import annotations

import sqlite3
import threading
from pathlib import Path
from typing import Any, List, Optional, Union

from repro.core.session_state import ANY_RECORD
from repro.errors import SessionStoreError
from repro.sessionstore.base import SessionStore

# A checkpoint rewrites a row's stamp and payload, never its session id,
# so it touches one B-tree: the table's.  An index on ``updated_unix``
# (databases written before it was dropped still hold one) made that
# two on every checkpoint, for the sake of the rare TTL sweep, which
# scans the table instead.
_SCHEMA = """
CREATE TABLE IF NOT EXISTS qd_sessions (
    session_id   TEXT PRIMARY KEY,
    updated_unix REAL NOT NULL,
    payload      TEXT NOT NULL
);
DROP INDEX IF EXISTS qd_sessions_updated;
"""

# A checkpoint: whatever is stored, only where nothing is, or only over
# the record the writer read.
_INSERT = (
    "INSERT INTO qd_sessions (session_id, updated_unix, payload)"
    " VALUES (?, ?, ?) ON CONFLICT(session_id) DO "
)
_UPSERT = _INSERT + (
    "UPDATE SET updated_unix = excluded.updated_unix,"
    " payload = excluded.payload"
)
_CREATE = _INSERT + "NOTHING"
_REPLACE = (
    "UPDATE qd_sessions SET updated_unix = ?, payload = ?"
    " WHERE session_id = ? AND payload = ?"
)


class SQLiteSessionStore(SessionStore):
    """Session records in one SQLite file (WAL, concurrent-worker safe).

    Safe to share between threads: every operation borrows a
    connection from the free-list for as long as its statement (or, for
    a sweep, its transaction) runs, so the store holds as many
    connections as it ever had operations in flight at once, and
    :meth:`close` closes them all.
    """

    kind = "sqlite"

    def __init__(
        self, path: Union[str, Path], *, busy_timeout_s: float = 30.0
    ) -> None:
        self._path = str(path)
        self._busy_timeout_s = float(busy_timeout_s)
        #: Idle connections (a stack) and every connection this object
        #: opened, for ``close``.
        self._free: List[sqlite3.Connection] = []
        self._conns: List[sqlite3.Connection] = []
        self._conns_lock = threading.Lock()
        self._closed = False
        # Create the schema eagerly so a bad path fails at construction,
        # not at the first checkpoint.
        self._release(self._acquire())

    # -- connection management -----------------------------------------
    def _acquire(self) -> sqlite3.Connection:
        """Take an idle connection (the caller owns it) or open one."""
        if self._closed:
            raise SessionStoreError(
                f"sqlite session store {self._path} is closed"
            )
        try:
            return self._free.pop()
        except IndexError:
            pass
        try:
            conn = sqlite3.connect(
                self._path,
                timeout=self._busy_timeout_s,
                isolation_level=None,  # autocommit; no lingering txns
                check_same_thread=False,
            )
            conn.execute("PRAGMA journal_mode=WAL")
            conn.execute("PRAGMA synchronous=NORMAL")
            conn.execute(
                f"PRAGMA busy_timeout={int(self._busy_timeout_s * 1000)}"
            )
            conn.executescript(_SCHEMA)
        except sqlite3.Error as exc:
            raise SessionStoreError(
                f"cannot open sqlite session store {self._path}: {exc}"
            ) from exc
        with self._conns_lock:
            self._conns.append(conn)
        return conn

    def _release(self, conn: sqlite3.Connection) -> None:
        self._free.append(conn)

    # -- primitives ----------------------------------------------------
    def _put(
        self,
        session_id: str,
        payload: str,
        updated_unix: float,
        replacing: Any,
    ) -> Optional[bool]:
        if replacing is ANY_RECORD:
            sql, args = _UPSERT, (session_id, updated_unix, payload)
        elif replacing is None:
            sql, args = _CREATE, (session_id, updated_unix, payload)
        else:
            sql = _REPLACE
            args = (updated_unix, payload, session_id, replacing)
        conn = self._acquire()
        try:
            cursor = conn.execute(sql, args)
        except sqlite3.Error as exc:
            raise SessionStoreError(
                f"sqlite checkpoint of {session_id!r} failed: {exc}"
            ) from exc
        finally:
            self._release(conn)
        return None if cursor.rowcount > 0 else False

    def _get(self, session_id: str) -> Optional[str]:
        conn = self._acquire()
        try:
            row = conn.execute(
                "SELECT payload FROM qd_sessions WHERE session_id = ?",
                (session_id,),
            ).fetchone()
        finally:
            self._release(conn)
        return row[0] if row is not None else None

    def _delete(self, session_id: str, replacing: Any = ANY_RECORD) -> bool:
        sql = "DELETE FROM qd_sessions WHERE session_id = ?"
        args: tuple = (session_id,)
        if replacing is not ANY_RECORD:
            sql += " AND payload IS ?"
            args += (replacing,)
        conn = self._acquire()
        try:
            cursor = conn.execute(sql, args)
        finally:
            self._release(conn)
        return cursor.rowcount > 0

    def _list_ids(self) -> List[str]:
        conn = self._acquire()
        try:
            rows = conn.execute(
                "SELECT session_id FROM qd_sessions"
            ).fetchall()
        finally:
            self._release(conn)
        return [row[0] for row in rows]

    def _sweep(self, cutoff_unix: float) -> List[str]:
        # One connection for the whole transaction.  BEGIN IMMEDIATE
        # serializes concurrent sweepers so two workers never both
        # report having deleted the same session.
        conn = self._acquire()
        try:
            conn.execute("BEGIN IMMEDIATE")
            try:
                swept = [
                    row[0]
                    for row in conn.execute(
                        "SELECT session_id FROM qd_sessions"
                        " WHERE updated_unix < ?",
                        (cutoff_unix,),
                    )
                ]
                conn.execute(
                    "DELETE FROM qd_sessions WHERE updated_unix < ?",
                    (cutoff_unix,),
                )
                conn.execute("COMMIT")
            except sqlite3.Error:
                conn.execute("ROLLBACK")
                raise
        finally:
            self._release(conn)
        return swept

    # -- lifecycle -----------------------------------------------------
    def close(self) -> None:
        self._closed = True
        with self._conns_lock:
            conns, self._conns = self._conns, []
        for conn in conns:
            try:
                conn.close()
            except sqlite3.Error:  # pragma: no cover - close is best-effort
                pass
