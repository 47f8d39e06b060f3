"""A concurrent QD serving core with admission control.

``QDServer`` is the in-process heart of the serving stack (the TCP
layer in :mod:`repro.serve.tcp` is a thin codec over it): ``workers``
execution slots, each owning a :class:`~repro.core.SessionFrontEnd`
over the engine's shared session store — the thin-view/fat-engine split
of a multi-user CBIR service — behind a bounded admission queue.

**Admission model.**  Every request runs on the thread that brought it,
through :meth:`QDServer.request`, the one way an op executes — a
feedback round is a tree lookup and a record write, and a hand-off to
another thread would cost more than the admission itself.  A caller
takes a free slot at once when no one is waiting for one.  Otherwise it
waits in line, in arrival order, on its own condition over the server's
one lock, until a released slot is handed to it (waking it alone) or its
deadline passes; at most ``queue_limit`` callers wait.  So at most
``workers`` requests execute at once, and the server starts no thread
of its own.  Slots are handed out last-released-first, so a closed-loop
client keeps meeting the same warm front-end.

Any slot can resume any session from the record; they share the
engine's hot copies and skip the rebuild when the stored record is the
one the engine last wrote.

Overload behaviour is engineered, not accidental:

* **Load shedding** — a request arriving while ``queue_limit`` callers
  wait is answered ``shed`` *immediately* (a structured retriable
  response, never an exception or an unbounded wait).  The queue bound
  is what keeps admitted-request latency finite: under any overload, a
  request that gets in waits behind at most ``queue_limit`` others.
* **Per-request deadlines** — every request carries a deadline
  (caller-set or :attr:`~repro.config.ServeConfig.default_deadline_s`).
  A caller still waiting when its deadline passes is answered
  ``deadline_expired`` then, without executing; admitted-and-executed
  requests therefore never start past their deadline.
* **Graceful drain** — :meth:`close` stops admissions and waits until
  no caller waits and every slot is back (bounded by
  :attr:`~repro.config.ServeConfig.drain_timeout_s`); in-flight
  requests are never abandoned mid-operation.

SLO metrics exported through the obs layer (built only while metrics
are enabled):

=================================  =====================================
``qd_server_requests_total``       counter, labels ``op``/``status``
``qd_server_request_seconds``      histogram (p50/p99), label ``op``
``qd_server_queue_wait_seconds``   histogram, wait for a slot
``qd_server_queue_depth``          gauge, callers waiting for a slot
``qd_server_shed_total``           counter, label ``reason``
``qd_server_deadline_expired_total``  counter, expired before execution
=================================  =====================================
"""

from __future__ import annotations

import threading
import time
from collections import deque
from dataclasses import dataclass
from typing import Any, Deque, Dict, List, Optional

from repro.config import ServeConfig
from repro.core.clientserver import FrontEndResult, SessionFrontEnd
from repro.core.engine import QueryDecompositionEngine
from repro.errors import ConfigurationError
from repro.obs import get_metrics


@dataclass(frozen=True)
class ServerResponse:
    """Outcome of one server request.

    ``status`` is ``"ok"``, or one of the structured failure kinds:
    ``"shed"`` / ``"deadline_expired"`` (admission control; always
    retriable), ``"stale_session"`` (retriable after re-opening), or
    ``"not_found"`` / ``"invalid_state"`` / ``"invalid_request"``.
    """

    op: str
    status: str
    value: Any = None
    retriable: bool = False
    error: str = ""
    #: Seconds between admission and the start of execution (the wait
    #: for a slot; next to nothing when one was free).
    queue_wait_s: float = 0.0
    #: Seconds the front-end spent executing (0 when not executed).
    service_s: float = 0.0

    @property
    def ok(self) -> bool:
        return self.status == "ok"


# eq=False: a waiter leaves the queue by identity, never by an equal twin.
@dataclass(eq=False)
class _Request:
    op: str
    kwargs: Dict[str, Any]
    deadline: float  # absolute monotonic seconds
    enqueued: float
    #: The slot handed to this request (set under the server's lock).
    frontend: Optional[SessionFrontEnd] = None
    #: Notified when a slot is handed to this request; made over the
    #: server's lock when the request joins the line.
    handed: Optional[threading.Condition] = None


class QDServer:
    """``workers`` execution slots behind a bounded admission queue.

    :meth:`request` runs every op on the calling thread: at once when a
    slot is free and no one is waiting, after a wait in arrival order
    otherwise (at most ``queue_limit`` callers wait).  ``workers``
    bounds concurrent execution; the server starts no thread.

    Parameters
    ----------
    engine:
        The serving engine (sharded or single-node); must have a
        session store attached — every slot's front-end can resume
        sessions from it, so consecutive requests of one dialogue may
        be served by different slots and threads.
    config:
        Admission-control knobs (validated up front by
        :class:`~repro.config.ServeConfig`).
    """

    def __init__(
        self,
        engine: QueryDecompositionEngine,
        config: Optional[ServeConfig] = None,
    ) -> None:
        if engine.session_store is None:
            raise ConfigurationError(
                "QDServer needs an engine with an attached session "
                "store (attach_session_store first)"
            )
        self.engine = engine
        self.config = config or ServeConfig()
        #: Guards the waiters, the free slots, the flag and ``stats``.
        self._lock = threading.Lock()
        #: Notified when a slot goes back on the free stack while
        #: draining: drain() waits here (a waiter waits on its own
        #: ``handed`` condition).
        self._slot_back = threading.Condition(self._lock)
        self._waiting: Deque[_Request] = deque()
        self._accepting = True
        self.stats = {
            "submitted": 0,
            "admitted": 0,
            "shed": 0,
            "expired": 0,
            "completed": 0,
        }
        # A stack: the slot released last is taken next (srv0 first).
        self._free: List[SessionFrontEnd] = [
            SessionFrontEnd(engine, worker_id=f"srv{i}")
            for i in reversed(range(self.config.workers))
        ]

    # -- admission -----------------------------------------------------
    def request(
        self,
        op: str,
        *,
        deadline_s: Optional[float] = None,
        **kwargs: Any,
    ) -> ServerResponse:
        """Serve one request on the calling thread; never raises for load.

        Takes a free slot when no one is waiting for one, else waits in
        arrival order until a slot is handed over or the deadline
        passes.  A caller that finds ``queue_limit`` others waiting (or
        the server draining) is answered ``shed`` at once.
        """
        now = time.monotonic()
        budget = (
            self.config.default_deadline_s
            if deadline_s is None
            else float(deadline_s)
        )
        request = _Request(
            op=op, kwargs=kwargs, deadline=now + budget, enqueued=now
        )
        refusal = self._admit(request)
        if refusal is not None:
            return self._shed(request, refusal)
        try:
            if request.frontend is None:
                self._await_slot(request)
            return self._serve(request, request.frontend)
        finally:
            # Also when the wait itself raised: a slot handed over is
            # never lost with its caller.
            if request.frontend is not None:
                self._release(request.frontend)

    def _admit(self, request: _Request) -> Optional[str]:
        """Give ``request`` a free slot or a place in line.

        Returns ``None`` when admitted (``request.frontend`` is set if
        a slot was free), otherwise why it is shed.
        """
        refusal = None
        queued = False
        with self._lock:
            self.stats["submitted"] += 1
            if not self._accepting:
                refusal = "draining"
            elif self._free and not self._waiting:
                request.frontend = self._free.pop()
            elif len(self._waiting) < self.config.queue_limit:
                request.handed = threading.Condition(self._lock)
                self._waiting.append(request)
                queued = True
            else:
                refusal = "queue_full"
            self.stats["admitted" if refusal is None else "shed"] += 1
        if queued:
            metrics = get_metrics()
            if metrics.enabled:
                self._gauge_depth(metrics)
        return refusal

    def _await_slot(self, request: _Request) -> None:
        """Wait in line until a slot is handed over or the request's
        deadline passes; the request leaves the line either way, also
        when the wait raises."""
        assert request.handed is not None
        with self._lock:
            try:
                while request.frontend is None:
                    left = request.deadline - time.monotonic()
                    if not left > 0:
                        break
                    # A far deadline would overflow the lock's timeout.
                    request.handed.wait(min(left, threading.TIMEOUT_MAX))
            finally:
                if request.frontend is None:
                    self._waiting.remove(request)

    def _release(self, frontend: SessionFrontEnd) -> None:
        """Hand a slot to the longest waiter, waking only it, or put it
        back on the free stack."""
        with self._lock:
            if self._waiting:
                head = self._waiting.popleft()
                head.frontend = frontend
                assert head.handed is not None
                head.handed.notify()
            else:
                self._free.append(frontend)
                if not self._accepting:  # drain() may wait for this one
                    self._slot_back.notify_all()

    def _shed(self, request: _Request, reason: str) -> ServerResponse:
        metrics = get_metrics()
        if metrics.enabled:
            metrics.counter(
                "qd_server_shed_total",
                "requests refused at admission",
                labels={"reason": reason},
            ).inc()
            self._count_outcome(metrics, request.op, "shed")
        return ServerResponse(
            op=request.op,
            status="shed",
            retriable=True,
            error=f"admission refused: {reason}",
        )

    # -- execution -----------------------------------------------------
    def _serve(
        self, request: _Request, frontend: Optional[SessionFrontEnd]
    ) -> ServerResponse:
        """Run ``request`` on ``frontend``: the one way an op executes.

        Answers ``deadline_expired`` without executing when no slot
        came in time (``frontend`` is ``None``) or the deadline passed
        anyway; folds any exception into an ``internal`` response (the
        caller's thread must survive); keeps the stats and the SLO
        metrics.
        """
        metrics = get_metrics()
        observed = metrics.enabled
        now = time.monotonic()
        wait = now - request.enqueued
        if observed:
            metrics.histogram(
                "qd_server_queue_wait_seconds",
                "seconds spent waiting for a slot",
            ).observe(wait)
            self._gauge_depth(metrics)
        if frontend is None or now > request.deadline:
            with self._lock:
                self.stats["expired"] += 1
            if observed:
                metrics.counter(
                    "qd_server_deadline_expired_total",
                    "requests that expired before execution",
                ).inc()
                self._count_outcome(metrics, request.op, "deadline_expired")
            return ServerResponse(
                op=request.op,
                status="deadline_expired",
                retriable=True,
                error=f"waited {wait:.3f}s, past the request deadline",
                queue_wait_s=wait,
            )
        start = time.perf_counter()
        try:
            outcome = frontend.handle(request.op, **request.kwargs)
        except Exception as exc:  # noqa: BLE001 - the thread must survive
            outcome = FrontEndResult(
                ok=False, error_kind="internal", error=repr(exc)
            )
        service = time.perf_counter() - start
        status = "ok" if outcome.ok else outcome.error_kind
        if observed:
            self._count_outcome(metrics, request.op, status)
            metrics.histogram(
                "qd_server_request_seconds",
                "service time of executed requests",
                labels={"op": request.op},
            ).observe(service)
        with self._lock:
            self.stats["completed"] += 1
        return ServerResponse(
            op=request.op,
            status=status,
            value=outcome.value,
            retriable=outcome.retriable,
            error=outcome.error,
            queue_wait_s=wait,
            service_s=service,
        )

    @staticmethod
    def _count_outcome(metrics: Any, op: str, status: str) -> None:
        metrics.counter(
            "qd_server_requests_total",
            "server requests by outcome",
            labels={"op": op, "status": status},
        ).inc()

    def _gauge_depth(self, metrics: Any) -> None:
        metrics.gauge(
            "qd_server_queue_depth", "callers waiting for a slot"
        ).set(float(len(self._waiting)))

    # -- lifecycle -----------------------------------------------------
    @property
    def accepting(self) -> bool:
        return self._accepting

    @property
    def queue_depth(self) -> int:
        return len(self._waiting)

    def drain(self, timeout_s: Optional[float] = None) -> bool:
        """Stop admissions and wait for admitted work to finish.

        Returns True when no caller waits and every slot came back
        within the timeout (``None`` uses the configured drain timeout;
        ``0`` waits forever).  Requests during and after a drain are
        shed with reason ``draining``.
        """
        budget = (
            self.config.drain_timeout_s if timeout_s is None else timeout_s
        )
        with self._lock:
            self._accepting = False
            return self._slot_back.wait_for(
                lambda: not self._waiting
                and len(self._free) == self.config.workers,
                None if budget == 0 else budget,
            )

    def close(self, *, drain: bool = True) -> bool:
        """Stop admissions, draining first unless ``drain`` is False."""
        if drain:
            return self.drain()
        with self._lock:
            self._accepting = False
        return True

    def __enter__(self) -> "QDServer":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()
