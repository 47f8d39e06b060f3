"""Directory-of-JSON session store: one pretty-printed file per session.

The debuggable backend: ``cat <dir>/<session_id>.json`` shows exactly
what a worker will resume, and a record can be copied between machines
with ``scp``.  Writes are atomic (temp file + ``os.replace``), so a
killed worker never leaves a half-written record.  A conditional write
(``replacing=``) reads the file and compares it with the record it
replaces just before the ``os.replace``, under a lock of the store
object: threads of one process sharing it never both win, but two
processes writing the same session between that read and the replace
still last-write-win.  Use the SQLite store to share sessions between
processes.
"""

from __future__ import annotations

import json
import os
import re
import tempfile
import threading
from pathlib import Path
from typing import Any, List, Optional, Union

from repro.core.session_state import ANY_RECORD
from repro.errors import SessionStoreError
from repro.sessionstore.base import SessionStore

#: Session ids become file names, so constrain them to a safe alphabet
#: (uuid hex and human-chosen names pass; path separators do not).
_SAFE_ID = re.compile(r"^[A-Za-z0-9._-]+$")
_SUFFIX = ".json"


class JSONDirectorySessionStore(SessionStore):
    """One ``<session_id>.json`` per session under a directory."""

    kind = "jsondir"

    def __init__(self, path: Union[str, Path]) -> None:
        self._dir = Path(path)
        self._dir.mkdir(parents=True, exist_ok=True)
        self._lock = threading.Lock()

    def _file(self, session_id: str) -> Path:
        if not _SAFE_ID.match(session_id):
            raise SessionStoreError(
                f"session id {session_id!r} is not a safe file name "
                "(allowed: letters, digits, '.', '_', '-')"
            )
        return self._dir / f"{session_id}{_SUFFIX}"

    # -- primitives ----------------------------------------------------
    def _put(
        self,
        session_id: str,
        payload: str,
        updated_unix: float,
        replacing: Any,
    ) -> Union[str, bool]:
        target = self._file(session_id)
        # Re-indent for humans; the payload is canonical JSON already.
        text = (
            json.dumps(json.loads(payload), indent=2, sort_keys=True)
            + "\n"
        )
        fd, tmp_name = tempfile.mkstemp(
            prefix=f".{session_id}.", suffix=".tmp", dir=self._dir
        )
        try:
            with os.fdopen(fd, "w") as handle:
                handle.write(text)
            with self._lock:
                if not self._holds(session_id, replacing):
                    os.unlink(tmp_name)
                    return False
                os.replace(tmp_name, target)
        except OSError as exc:
            try:
                os.unlink(tmp_name)
            except OSError:
                pass
            raise SessionStoreError(
                f"cannot checkpoint session {session_id!r} to "
                f"{target}: {exc}"
            ) from exc
        return text

    def _get(self, session_id: str) -> Optional[str]:
        try:
            return self._file(session_id).read_text()
        except FileNotFoundError:
            return None

    def _delete(self, session_id: str, replacing: Any = ANY_RECORD) -> bool:
        with self._lock:
            if not self._holds(session_id, replacing):
                return False
            try:
                self._file(session_id).unlink()
                return True
            except FileNotFoundError:
                return False

    def _holds(self, session_id: str, replacing: Any) -> bool:
        """Is ``replacing`` what is stored (call under the lock)?"""
        return replacing is ANY_RECORD or self._get(session_id) == replacing

    def _list_ids(self) -> List[str]:
        return [
            entry.name[: -len(_SUFFIX)]
            for entry in self._dir.iterdir()
            if entry.name.endswith(_SUFFIX)
            and not entry.name.startswith(".")
        ]
