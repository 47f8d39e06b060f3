"""A concurrent QD serving core with admission control.

``QDServer`` is the in-process heart of the serving stack (the TCP
layer in :mod:`repro.serve.tcp` is a thin codec over it): ``workers``
execution slots, each owning a :class:`~repro.core.SessionFrontEnd`
over the engine's shared session store — the thin-view/fat-engine split
of a multi-user CBIR service — behind a bounded admission queue.

**Admission model.**  A request is *served by the thread that brought
it when a slot is free, queued otherwise*: :meth:`QDServer.request`
takes a free slot and runs the op on the calling thread when nothing is
waiting (so nothing is overtaken) — a feedback round is a tree lookup
and a record write, and two thread switches through a queue were a
tenth of it.  When every slot is taken the request waits in the queue
for a worker thread, as every :meth:`QDServer.submit` does.  Both ways
run the same :meth:`QDServer._serve`; at most ``workers`` requests
execute at once counting both, and at most ``queue_limit`` wait.  Slots
are handed out last-released-first, so a closed-loop client keeps
meeting the same warm front-end.

Any slot can resume any session from the record; they share the
engine's hot copies and skip the rebuild when the stored record is the
one the engine last wrote.

Overload behaviour is engineered, not accidental:

* **Load shedding** — a request arriving while the queue is full is
  answered ``shed`` *immediately* (a structured retriable response,
  never an exception or an unbounded wait).  The queue bound is what
  keeps admitted-request latency finite: under any overload, a request
  that gets in waits behind at most ``queue_limit`` others.
* **Per-request deadlines** — every request carries a deadline
  (caller-set or :attr:`~repro.config.ServeConfig.default_deadline_s`).
  A request still queued when its deadline passes is answered
  ``deadline_expired`` without executing; admitted-and-executed
  requests therefore never violate their deadline at dequeue time.
* **Graceful drain** — :meth:`close` stops admissions, lets queued and
  executing work finish (bounded by
  :attr:`~repro.config.ServeConfig.drain_timeout_s`), then joins the
  workers; in-flight requests are never abandoned mid-operation.

SLO metrics exported through the obs layer (built only while metrics
are enabled):

=================================  =====================================
``qd_server_requests_total``       counter, labels ``op``/``status``
``qd_server_request_seconds``      histogram (p50/p99), label ``op``
``qd_server_queue_wait_seconds``   histogram, admission-queue wait
``qd_server_queue_depth``          gauge, current queued requests
``qd_server_shed_total``           counter, label ``reason``
``qd_server_deadline_expired_total``  counter, expired before execution
=================================  =====================================
"""

from __future__ import annotations

import threading
import time
from collections import deque
from concurrent.futures import Future
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
    #: Seconds between admission and the start of execution (the
    #: admission queue's wait; next to nothing when served in-line).
    queue_wait_s: float = 0.0
    #: Seconds the front-end spent executing (0 when not executed).
    service_s: float = 0.0

    @property
    def ok(self) -> bool:
        return self.status == "ok"


@dataclass
class _Request:
    op: str
    kwargs: Dict[str, Any]
    deadline: float  # absolute monotonic seconds
    enqueued: float
    #: Set when the answer has to cross threads (queued or shed).
    future: "Optional[Future[ServerResponse]]" = None


class QDServer:
    """``workers`` execution slots behind a bounded admission queue.

    :meth:`request` serves on the calling thread when a slot is free
    and nothing is queued; otherwise, and for every :meth:`submit`, the
    request waits (at most ``queue_limit`` do) for one of the
    ``workers`` worker threads.  Either way it needs a slot, so
    ``workers`` bounds concurrent execution.

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
        #: Guards the queue, the free slots, the flags and ``stats``.
        self._lock = threading.Lock()
        #: Workers wait here for "a request is queued and a slot free".
        self._work = threading.Condition(self._lock)
        self._queue: Deque[_Request] = deque()
        self._accepting = True
        self._stopping = False
        self.stats = {
            "submitted": 0,
            "admitted": 0,
            "shed": 0,
            "expired": 0,
            "completed": 0,
        }
        n = self.config.workers
        # A stack: the slot released last is taken next (srv0 first).
        self._free: List[SessionFrontEnd] = [
            SessionFrontEnd(engine, worker_id=f"srv{i}")
            for i in reversed(range(n))
        ]
        self._workers: List[threading.Thread] = [
            threading.Thread(
                target=self._worker_loop, name=f"qd-server-{i}", daemon=True
            )
            for i in range(n)
        ]
        for thread in self._workers:
            thread.start()

    # -- admission -----------------------------------------------------
    def submit(
        self,
        op: str,
        *,
        deadline_s: Optional[float] = None,
        **kwargs: Any,
    ) -> "Future[ServerResponse]":
        """Enqueue one request; never blocks, never raises for load.

        Returns a future that resolves to a :class:`ServerResponse` —
        immediately (already resolved) when the request is shed.
        """
        request = self._new_request(op, deadline_s, kwargs)
        self._admit(request, inline=False)
        assert request.future is not None
        return request.future

    def request(
        self,
        op: str,
        *,
        deadline_s: Optional[float] = None,
        **kwargs: Any,
    ) -> ServerResponse:
        """Serve one request and return its response.

        On the calling thread when a slot is free and nothing is
        queued; through the queue and a worker otherwise.
        """
        request = self._new_request(op, deadline_s, kwargs)
        frontend = self._admit(request, inline=True)
        if frontend is None:
            assert request.future is not None
            return request.future.result()
        try:
            return self._serve(request, frontend)
        finally:
            self._release(frontend)

    def _new_request(
        self, op: str, deadline_s: Optional[float], kwargs: Dict[str, Any]
    ) -> _Request:
        now = time.monotonic()
        budget = (
            self.config.default_deadline_s
            if deadline_s is None
            else float(deadline_s)
        )
        return _Request(
            op=op, kwargs=kwargs, deadline=now + budget, enqueued=now
        )

    def _admit(
        self, request: _Request, *, inline: bool
    ) -> Optional[SessionFrontEnd]:
        """Admit, queue or shed ``request``.

        Returns a slot's front-end when the caller is to serve the
        request itself (only if ``inline``); otherwise ``None``, with
        the answer coming through ``request.future``.
        """
        shed = None
        with self._lock:
            self.stats["submitted"] += 1
            if not self._accepting:
                shed = "draining"
            elif inline and self._free and not self._queue:
                self.stats["admitted"] += 1
                return self._free.pop()
            elif len(self._queue) >= self.config.queue_limit:
                shed = "queue_full"
            # From here on the answer crosses threads (or is a refusal).
            request.future = Future()
            if shed is None:
                self.stats["admitted"] += 1
                self._queue.append(request)
                if self._free:
                    self._work.notify()
            else:
                self.stats["shed"] += 1
        metrics = get_metrics()
        if shed is not None:
            request.future.set_result(
                ServerResponse(
                    op=request.op,
                    status="shed",
                    retriable=True,
                    error=f"admission refused: {shed}",
                )
            )
            if metrics.enabled:
                metrics.counter(
                    "qd_server_shed_total",
                    "requests refused at admission",
                    labels={"reason": shed},
                ).inc()
                self._count_outcome(metrics, request.op, "shed")
        elif metrics.enabled:
            self._gauge_depth(metrics)
        return None

    def _release(self, frontend: SessionFrontEnd) -> None:
        """Return a slot; wake a worker if something waits for one."""
        with self._lock:
            self._free.append(frontend)
            if self._queue:
                self._work.notify()

    # -- execution -----------------------------------------------------
    def _worker_loop(self) -> None:
        while True:
            with self._lock:
                while not (self._queue and self._free):
                    if self._stopping and not self._queue:
                        return
                    self._work.wait()
                request = self._queue.popleft()
                frontend = self._free.pop()
            try:
                response = self._serve(request, frontend)
            finally:
                self._release(frontend)
            assert request.future is not None
            request.future.set_result(response)

    def _serve(
        self, request: _Request, frontend: SessionFrontEnd
    ) -> ServerResponse:
        """Run ``request`` on ``frontend``: the one way an op executes.

        Checks the deadline, folds any exception into an ``internal``
        response (a worker or handler thread must survive), keeps the
        stats and the SLO metrics.
        """
        metrics = get_metrics()
        observed = metrics.enabled
        now = time.monotonic()
        wait = now - request.enqueued
        if observed:
            metrics.histogram(
                "qd_server_queue_wait_seconds",
                "seconds spent in the admission queue",
            ).observe(wait)
            self._gauge_depth(metrics)
        if now > request.deadline:
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
                error=f"queued {wait:.3f}s, past the request deadline",
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
            "qd_server_queue_depth", "requests waiting for a worker"
        ).set(float(len(self._queue)))

    # -- lifecycle -----------------------------------------------------
    @property
    def accepting(self) -> bool:
        return self._accepting

    @property
    def queue_depth(self) -> int:
        return len(self._queue)

    def drain(self, timeout_s: Optional[float] = None) -> bool:
        """Stop admissions and wait for admitted work to finish.

        Returns True when the queue emptied and every slot came back —
        in-line requests included — within the timeout (``None`` uses
        the configured drain timeout; ``0`` waits forever).  New
        submissions during and after a drain are shed with reason
        ``draining``.
        """
        with self._lock:
            self._accepting = False
        budget = (
            self.config.drain_timeout_s if timeout_s is None else timeout_s
        )
        deadline = None if budget == 0 else time.monotonic() + budget
        while self._queue or len(self._free) < self.config.workers:
            if deadline is not None and time.monotonic() > deadline:
                return False
            time.sleep(0.001)
        return True

    def close(self, *, drain: bool = True) -> bool:
        """Drain (optionally), stop the workers, and join them."""
        drained = self.drain() if drain else True
        with self._lock:
            self._accepting = False
            self._stopping = True
            self._work.notify_all()
        for thread in self._workers:
            thread.join(timeout=5.0)
        self._workers = []
        return drained

    def __enter__(self) -> "QDServer":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()
