"""In-process session store: a dict under a lock.

The fastest backend and the right default for a single-process server
or tests.  It keeps the frozen record that
:meth:`~repro.core.session.FeedbackSession.capture` built (fresh tuples
and dicts, nothing shared with the live session), so a checkpoint
encodes nothing; :meth:`read_payload` renders the SQLite backend's
text on demand and :meth:`get` decodes it, so a resume is the same
codec round-trip as everywhere else.  Only durability differs: the
records die with the process.  A conditional write (``replacing=``)
compares the stored record by identity under the store's lock.
"""

from __future__ import annotations

import threading
from typing import Any, Dict, List, Optional

from repro.core.session_state import ANY_RECORD, SessionState
from repro.sessionstore.base import SessionStore


class InMemorySessionStore(SessionStore):
    """Thread-safe dict-backed store (no durability, no cross-process)."""

    kind = "memory"

    def __init__(self) -> None:
        self._records: Dict[str, SessionState] = {}
        self._lock = threading.Lock()

    def read_payload(self, session_id: str) -> Optional[str]:
        record = self.read_record(session_id)
        return None if record is None else self._encode(record)

    def _keep(self, state: SessionState) -> SessionState:
        return state

    def _put(
        self,
        session_id: str,
        record: SessionState,
        updated_unix: float,
        replacing: Any,
    ) -> Optional[bool]:
        with self._lock:
            if not self._holds(session_id, replacing):
                return False
            self._records[session_id] = record
        return None

    def _get(self, session_id: str) -> Optional[SessionState]:
        with self._lock:
            return self._records.get(session_id)

    def _delete(self, session_id: str, replacing: Any = ANY_RECORD) -> bool:
        with self._lock:
            if not self._holds(session_id, replacing):
                return False
            return self._records.pop(session_id, None) is not None

    def _holds(self, session_id: str, replacing: Any) -> bool:
        """Is ``replacing`` what is stored (call under the lock)?"""
        return (
            replacing is ANY_RECORD
            or self._records.get(session_id) is replacing
        )

    def _list_ids(self) -> List[str]:
        with self._lock:
            return list(self._records)

    def _sweep(self, cutoff_unix: float) -> List[str]:
        with self._lock:
            swept = [
                session_id
                for session_id, record in self._records.items()
                if record.updated_unix < cutoff_unix
            ]
            for session_id in swept:
                del self._records[session_id]
        return swept
