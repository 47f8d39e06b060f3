"""The session front end: one serving worker over stored session state.

The paper's closing argument (§4 end, §6 "More Scalable") is that
relevance feedback needs only the RFS structure and the representative
images, so the server runs just the final localized k-NN subqueries.
:class:`SessionFrontEnd` is the server side of that split: every
request resumes the dialogue from its stored record, acts, and
checkpoints it again, so any worker can serve any round.
``tests/test_work_counts.py`` counts the work it does per request on
the benchmark's served traffic (k-NN calls, scanned rows, reply bytes)
and pins that no feedback round runs a k-NN computation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Iterable, List, Optional

from repro.errors import (
    ConfigurationError,
    DatasetError,
    NodeNotFoundError,
    QueryError,
    SessionNotFoundError,
    SessionStateError,
    StaleSessionError,
)
from repro.obs import get_metrics
from repro.utils.rng import RandomState

if TYPE_CHECKING:  # pragma: no cover - typing-only imports
    from repro.core.engine import QueryDecompositionEngine
    from repro.core.presentation import QueryResult


@dataclass(frozen=True)
class FrontEndResult:
    """Structured outcome of one front-end request.

    A worker boundary (thread pool, RPC layer) must never see a raw
    :class:`~repro.errors.StaleSessionError` traceback — stale state is
    an *expected* condition of a long-lived service (the index was
    rebuilt or mutated under a checkpointed session), and the right
    client reaction is to re-open the dialogue and try again.
    :meth:`SessionFrontEnd.handle` therefore folds session-layer
    exceptions into this record:

    * ``error_kind="stale_session"``, ``retriable=True`` — the record
      no longer matches the serving structure/config; re-open and
      retry,
    * ``error_kind="not_found"`` — unknown/expired/finalized id,
    * ``error_kind="invalid_state"`` — out-of-order op (e.g. finalize
      before any feedback),
    * ``error_kind="invalid_request"`` — malformed arguments.
    """

    ok: bool
    value: Any = None
    error_kind: str = ""
    retriable: bool = False
    error: str = ""


class SessionFrontEnd:
    """A serving worker over externalized session state.

    This is the deployment shape the :mod:`repro.sessionstore` layer
    unlocks (ROADMAP items 1–2): N interchangeable front-end workers
    behind a router.  Any worker can resume any session from the
    record, so consecutive requests of one dialogue may land on
    different workers (or worker restarts) with bit-identical results;
    a worker may skip the rebuild when the stored record is the one it
    last wrote.  Every request *checks out* the session from
    the engine (:meth:`~repro.core.engine.QueryDecompositionEngine.
    checkout_session`: the engine's hot copy if the stored record
    proves it current, else a :class:`~repro.core.session.
    FeedbackSession` rehydrated from the record), acts, re-checkpoints,
    and only then checks it back in — a request that fails anywhere
    leaves no hot copy behind, and the record stays the only truth.

    Parameters
    ----------
    engine:
        The serving engine; must have a session store attached
        (:meth:`~repro.core.engine.QueryDecompositionEngine.
        attach_session_store`).
    worker_id:
        Label for metrics, so per-worker request mix is visible when
        several front-ends share one store.
    """

    def __init__(
        self,
        engine: "QueryDecompositionEngine",
        *,
        worker_id: str = "worker0",
    ) -> None:
        if engine.session_store is None:
            raise ConfigurationError(
                "SessionFrontEnd needs an engine with an attached "
                "session store"
            )
        self.engine = engine
        self.worker_id = worker_id

    def _count(self, op: str) -> None:
        get_metrics().counter(
            "qd_frontend_requests_total",
            "session front-end requests served",
            labels={"worker": self.worker_id, "op": op},
        ).inc()

    # -- request handlers ----------------------------------------------
    def open(
        self,
        *,
        seed: RandomState = None,
        session_id: Optional[str] = None,
    ) -> str:
        """Open a new dialogue; returns its session id."""
        self._count("open")
        session = self.engine.open_session(seed=seed, session_id=session_id)
        self.engine.checkin_session(session)
        return session.session_id

    def display(self, session_id: str, screens: int = 1) -> List[int]:
        """Serve one screen of representatives for ``session_id``.

        The advanced round (and the live screen's ownership map) is
        checkpointed before returning, so the follow-up ``submit`` may
        be served by any worker.
        """
        self._count("display")
        session = self.engine.checkout_session(session_id)
        shown = session.display(screens=screens)
        session.checkpoint()
        self.engine.checkin_session(session)
        return shown

    def submit(self, session_id: str, relevant_ids: Iterable[int]) -> int:
        """Apply one round of relevance marks; returns active branches.

        ``FeedbackSession.submit`` auto-checkpoints, so no explicit
        checkpoint is needed here.
        """
        self._count("submit")
        session = self.engine.checkout_session(session_id)
        session.submit(relevant_ids)
        self.engine.checkin_session(session)
        return session.n_subqueries

    def finalize(self, session_id: str, k: int) -> "QueryResult":
        """Run the final localized k-NN; removes the session record.

        The session is never checked back in: finalized or failed, the
        next request for this id starts from the record (or its
        absence).
        """
        self._count("finalize")
        session = self.engine.checkout_session(session_id)
        return session.finalize(k)

    def abandon(self, session_id: str) -> bool:
        """Drop a dialogue the user walked away from."""
        self._count("abandon")
        store = self.engine.session_store
        assert store is not None  # checked at construction
        self.engine.release_session(session_id)
        return store.delete(session_id)

    def insert(self, vector: Iterable[float]) -> int:
        """Insert one feature vector into the serving index.

        Returns the new image's (stable) id.  Requires mutations to be
        enabled on the engine; lands in the delta segment, so the image
        is retrievable by the very next finalize without any rebuild.
        """
        self._count("insert")
        import numpy as np

        return self.engine.insert_image(
            np.asarray(list(vector), dtype=np.float64)
        )

    def remove(self, image_id: int) -> bool:
        """Remove one image by id (tombstone; compaction reclaims it)."""
        self._count("remove")
        self.engine.remove_image(image_id)
        return True

    #: Ops :meth:`handle` dispatches, mapped to their raw methods.
    OPS = (
        "open", "display", "submit", "finalize", "abandon",
        "insert", "remove",
    )

    def handle(self, op: str, **kwargs: Any) -> FrontEndResult:
        """Serve one request, folding session faults into the result.

        The raw per-op methods above raise — fine for in-process
        callers that own the session lifecycle.  Serving workers call
        this instead: a stale or vanished session becomes a structured
        :class:`FrontEndResult` (``retriable`` set for stale state, the
        condition a client fixes by re-opening) rather than an
        exception crossing the worker boundary.
        """
        if op not in self.OPS:
            return FrontEndResult(
                ok=False,
                error_kind="invalid_request",
                error=f"unknown op {op!r} (expected one of {self.OPS})",
            )
        try:
            value = getattr(self, op)(**kwargs)
        except StaleSessionError as exc:
            get_metrics().counter(
                "qd_frontend_stale_sessions_total",
                "requests that hit a stale session record",
                labels={"worker": self.worker_id},
            ).inc()
            return FrontEndResult(
                ok=False,
                error_kind="stale_session",
                retriable=True,
                error=str(exc),
            )
        except (SessionNotFoundError, NodeNotFoundError) as exc:
            # NodeNotFoundError: a remove targeting an id that is not
            # live (never existed, or already tombstoned).
            return FrontEndResult(
                ok=False, error_kind="not_found", error=str(exc)
            )
        except SessionStateError as exc:
            return FrontEndResult(
                ok=False, error_kind="invalid_state", error=str(exc)
            )
        except (
            QueryError,
            ConfigurationError,
            DatasetError,
            TypeError,
            ValueError,
        ) as exc:
            # Bad arguments (wrong k, unexpected kwargs, …): the
            # request was malformed, the session itself is untouched.
            return FrontEndResult(
                ok=False, error_kind="invalid_request", error=str(exc)
            )
        return FrontEndResult(ok=True, value=value)
