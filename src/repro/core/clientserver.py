"""Client/server deployment model (paper §4 end + §6 "More Scalable").

The paper's closing argument: because relevance feedback only needs the
RFS structure and the representative images (~5 % of the database), the
whole feedback process can run on the *client*; the server is contacted
once, at the end, to execute the small localized k-NN subqueries.  A
traditional relevance-feedback system instead runs a global k-NN on the
server every round for every user.

This module quantifies that claim for a given database/RFS pair:

* the one-time payload a client downloads (structure + representative
  features + thumbnail budget),
* the per-session server work under QD (final localized subqueries only)
  versus under a traditional technique (one global k-NN per round),
* the server-side capacity multiplier — how many concurrent users one
  server sustains under each model.
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
from repro.index.rfs import RFSStructure
from repro.obs import get_metrics, get_tracer
from repro.utils.rng import RandomState

if TYPE_CHECKING:  # pragma: no cover - typing-only imports
    from repro.core.engine import QueryDecompositionEngine
    from repro.core.presentation import QueryResult

#: Bytes per float64 feature component.
_FLOAT_BYTES = 8
#: Assumed thumbnail size shipped per representative image (bytes).
#: Corel thumbnails at ~120x80 JPEG quality are a few KiB.
DEFAULT_THUMBNAIL_BYTES = 4096
#: Bookkeeping bytes per tree node in the client payload (ids, box).
_NODE_OVERHEAD_BYTES = 64


@dataclass(frozen=True)
class ClientPayload:
    """Size of the one-time download enabling client-side feedback."""

    n_nodes: int
    n_representatives: int
    structure_bytes: int
    representative_feature_bytes: int
    thumbnail_bytes: int

    @property
    def total_bytes(self) -> int:
        """Total client download."""
        return (
            self.structure_bytes
            + self.representative_feature_bytes
            + self.thumbnail_bytes
        )


@dataclass(frozen=True)
class SessionCost:
    """Server-side work of one complete retrieval session.

    ``distance_evaluations`` counts feature-vector distance computations
    executed on the server; ``page_reads`` counts simulated disk pages.
    """

    distance_evaluations: int
    page_reads: int
    rounds_on_server: int


@dataclass(frozen=True)
class DeploymentComparison:
    """QD-on-client vs traditional-on-server for one workload shape."""

    payload: ClientPayload
    qd_session: SessionCost
    traditional_session: SessionCost

    @property
    def server_capacity_multiplier(self) -> float:
        """How many times more concurrent sessions the QD deployment
        sustains, by server distance evaluations."""
        qd = max(1, self.qd_session.distance_evaluations)
        return self.traditional_session.distance_evaluations / qd

    def format(self) -> str:
        """Human-readable comparison block."""
        payload = self.payload
        lines = [
            "Client/server deployment (paper §6, 'More Scalable')",
            f"  client download: {payload.total_bytes / 1024:.0f} KiB "
            f"({payload.n_representatives} representatives over "
            f"{payload.n_nodes} nodes)",
            "  per-session server work:",
            f"    QD (feedback on client): "
            f"{self.qd_session.distance_evaluations:,} distance evals, "
            f"{self.qd_session.page_reads} page reads, "
            f"{self.qd_session.rounds_on_server} server round(s)",
            f"    traditional RF:          "
            f"{self.traditional_session.distance_evaluations:,} distance "
            f"evals, {self.traditional_session.page_reads} page reads, "
            f"{self.traditional_session.rounds_on_server} server round(s)",
            f"  server capacity multiplier: "
            f"{self.server_capacity_multiplier:.1f}x",
        ]
        return "\n".join(lines)


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


def client_payload(
    rfs: RFSStructure,
    thumbnail_bytes: int = DEFAULT_THUMBNAIL_BYTES,
) -> ClientPayload:
    """Size of the download a client needs for offline feedback."""
    n_nodes = sum(1 for _ in rfs.iter_nodes())
    reps = rfs.all_representatives()
    dims = rfs.features.shape[1]
    return ClientPayload(
        n_nodes=n_nodes,
        n_representatives=len(reps),
        structure_bytes=n_nodes * (_NODE_OVERHEAD_BYTES + 2 * dims * _FLOAT_BYTES),
        representative_feature_bytes=len(reps) * dims * _FLOAT_BYTES,
        thumbnail_bytes=len(reps) * thumbnail_bytes,
    )


def compare_deployments(
    rfs: RFSStructure,
    *,
    rounds: int = 3,
    result_k: int = 100,
    n_subqueries: int = 4,
    mean_leaves_per_subquery: float = 1.2,
) -> DeploymentComparison:
    """Quantify server load under both deployment models.

    Parameters
    ----------
    rfs:
        The built structure (provides database size, leaf geometry).
    rounds:
        Feedback rounds per session.
    result_k:
        Result-set size of the final retrieval.
    n_subqueries:
        Localized subqueries the decomposition typically produces (the
        paper's running example ends with four).
    mean_leaves_per_subquery:
        Leaf pages a localized k-NN reads on average ("usually one",
        §5.2.2, plus occasional boundary expansions).
    """
    with get_tracer().span(
        "deployment_comparison", rounds=rounds, subqueries=n_subqueries
    ) as span:
        n_images = rfs.root.size
        leaves = [n for n in rfs.iter_nodes() if n.is_leaf]
        mean_leaf_size = n_images / max(1, len(leaves))

        # QD: the server only executes the final localized subqueries.
        scanned = int(
            n_subqueries * mean_leaves_per_subquery * mean_leaf_size
        )
        qd = SessionCost(
            distance_evaluations=scanned,
            page_reads=int(n_subqueries * mean_leaves_per_subquery),
            rounds_on_server=1,
        )

        # Traditional RF: a global k-NN over all images, every round.
        traditional = SessionCost(
            distance_evaluations=rounds * n_images,
            page_reads=rounds * len(leaves),
            rounds_on_server=rounds,
        )
        del result_k  # k affects result transfer, not scan cost, in both
        comparison = DeploymentComparison(
            payload=client_payload(rfs),
            qd_session=qd,
            traditional_session=traditional,
        )
        span.set(
            client_payload_bytes=comparison.payload.total_bytes,
            capacity_multiplier=round(
                comparison.server_capacity_multiplier, 2
            ),
        )
    metrics = get_metrics()
    metrics.gauge(
        "qd_client_payload_bytes", "one-time client download size"
    ).set(comparison.payload.total_bytes)
    metrics.gauge(
        "qd_server_capacity_multiplier",
        "QD vs traditional concurrent-session capacity",
    ).set(comparison.server_capacity_multiplier)
    return comparison
