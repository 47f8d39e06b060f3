"""Pluggable persistence for externalized session state.

The multi-round feedback dialogue is the stateful heart of Query
Decomposition; this package moves that state out of process memory so
any worker can resume any session (see
:mod:`repro.core.session_state` for the record itself).  Backend
selection matrix:

===========  ==========  ============  ===========================
backend      durability  concurrency   use when
===========  ==========  ============  ===========================
``memory``   none        threads       single-process servers, tests
``sqlite``   one file    threads +     several workers on one host
                         processes
===========  ==========  ============  ===========================

Both backends expose the same canonical JSON text (``memory`` renders
it on read), so a session checkpointed into one backend can be copied
into the other; rankings never depend on the backend choice.
"""

from repro._lazy import lazy_exports
from repro.config import SESSION_STORE_KINDS


def make_session_store(kind: str, path: str = "") -> "SessionStore":
    """Construct a session store by backend name.

    ``memory`` ignores ``path``; ``sqlite`` treats it as the database
    file.  Raises :class:`~repro.errors.SessionStoreError` on an
    unknown kind or a missing required path.  Only the chosen backend's
    module is imported.
    """
    from repro.errors import SessionStoreError

    if kind == "memory":
        from repro.sessionstore.memory import InMemorySessionStore

        return InMemorySessionStore()
    if kind == "sqlite":
        if not path:
            raise SessionStoreError(
                "sqlite session store needs a database file path"
            )
        from repro.sessionstore.sqlite import SQLiteSessionStore

        return SQLiteSessionStore(path)
    raise SessionStoreError(
        f"unknown session store kind {kind!r} "
        f"(expected one of {SESSION_STORE_KINDS})"
    )


__all__ = [
    "SESSION_STORE_KINDS",
    "InMemorySessionStore",
    "SQLiteSessionStore",
    "SessionStore",
    "decode_state",
    "encode_state",
    "make_session_store",
]

__getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "repro.sessionstore.base": (
            "SessionStore",
            "decode_state",
            "encode_state",
        ),
        "repro.sessionstore.memory": ("InMemorySessionStore",),
        "repro.sessionstore.sqlite": ("SQLiteSessionStore",),
    },
)
