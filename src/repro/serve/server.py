"""A concurrent QD serving core with admission control.

``QDServer`` is the in-process heart of the serving stack (the TCP
layer in :mod:`repro.serve.tcp` is a thin codec over it): a bounded
admission queue in front of a pool of worker threads, each wrapping its
own :class:`~repro.core.SessionFrontEnd` over the engine's shared
session store — the thin-view/fat-engine split of a multi-user CBIR
service.  Any worker can resume any session from the record; the
workers share the engine's hot copies and skip the rebuild when the
record is byte-identical to what the engine last wrote.

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
* **Graceful drain** — :meth:`close` stops admissions, lets queued
  work finish (bounded by
  :attr:`~repro.config.ServeConfig.drain_timeout_s`), then joins the
  workers; in-flight requests are never abandoned mid-operation.

SLO metrics exported through the obs layer:

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

import queue
import threading
import time
from concurrent.futures import Future
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

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
    #: Seconds the request waited in the admission queue.
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
    future: "Future[ServerResponse]" = field(default_factory=Future)


_STOP = object()


class QDServer:
    """Bounded-queue, multi-worker serving core over one engine.

    Parameters
    ----------
    engine:
        The serving engine (sharded or single-node); must have a
        session store attached — every worker can resume sessions from
        it, so consecutive requests of one dialogue may be served by
        different workers.
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
        self._queue: "queue.Queue[Any]" = queue.Queue(
            maxsize=self.config.queue_limit
        )
        self._accepting = True
        self._state_lock = threading.Lock()
        self._workers: List[threading.Thread] = []
        self.stats = {
            "submitted": 0,
            "admitted": 0,
            "shed": 0,
            "expired": 0,
            "completed": 0,
        }
        for i in range(self.config.workers):
            frontend = SessionFrontEnd(engine, worker_id=f"srv{i}")
            thread = threading.Thread(
                target=self._worker_loop,
                args=(frontend,),
                name=f"qd-server-{i}",
                daemon=True,
            )
            thread.start()
            self._workers.append(thread)

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
        now = time.monotonic()
        budget = (
            self.config.default_deadline_s
            if deadline_s is None
            else float(deadline_s)
        )
        request = _Request(
            op=op, kwargs=kwargs, deadline=now + budget, enqueued=now
        )
        with self._state_lock:
            self.stats["submitted"] += 1
            if not self._accepting:
                return self._shed(request, "draining")
            try:
                self._queue.put_nowait(request)
            except queue.Full:
                return self._shed(request, "queue_full")
            self.stats["admitted"] += 1
        get_metrics().gauge(
            "qd_server_queue_depth", "requests waiting for a worker"
        ).set(float(self._queue.qsize()))
        return request.future

    def request(
        self,
        op: str,
        *,
        deadline_s: Optional[float] = None,
        **kwargs: Any,
    ) -> ServerResponse:
        """Synchronous convenience wrapper around :meth:`submit`."""
        return self.submit(op, deadline_s=deadline_s, **kwargs).result()

    def _shed(self, request: _Request, reason: str) -> "Future[ServerResponse]":
        self.stats["shed"] += 1
        metrics = get_metrics()
        metrics.counter(
            "qd_server_shed_total",
            "requests refused at admission",
            labels={"reason": reason},
        ).inc()
        metrics.counter(
            "qd_server_requests_total",
            "server requests by outcome",
            labels={"op": request.op, "status": "shed"},
        ).inc()
        request.future.set_result(
            ServerResponse(
                op=request.op,
                status="shed",
                retriable=True,
                error=f"admission refused: {reason}",
            )
        )
        return request.future

    # -- worker loop ---------------------------------------------------
    def _worker_loop(self, frontend: SessionFrontEnd) -> None:
        metrics = get_metrics()
        while True:
            item = self._queue.get()
            if item is _STOP:
                self._queue.task_done()
                return
            request: _Request = item
            now = time.monotonic()
            wait = now - request.enqueued
            metrics.histogram(
                "qd_server_queue_wait_seconds",
                "seconds spent in the admission queue",
            ).observe(wait)
            metrics.gauge(
                "qd_server_queue_depth",
                "requests waiting for a worker",
            ).set(float(self._queue.qsize()))
            if now > request.deadline:
                with self._state_lock:
                    self.stats["expired"] += 1
                metrics.counter(
                    "qd_server_deadline_expired_total",
                    "requests that expired before execution",
                ).inc()
                metrics.counter(
                    "qd_server_requests_total",
                    "server requests by outcome",
                    labels={
                        "op": request.op,
                        "status": "deadline_expired",
                    },
                ).inc()
                request.future.set_result(
                    ServerResponse(
                        op=request.op,
                        status="deadline_expired",
                        retriable=True,
                        error=(
                            f"queued {wait:.3f}s, past the request "
                            "deadline"
                        ),
                        queue_wait_s=wait,
                    )
                )
                self._queue.task_done()
                continue
            start = time.perf_counter()
            try:
                outcome = frontend.handle(request.op, **request.kwargs)
            except Exception as exc:  # noqa: BLE001 - worker must survive
                outcome = FrontEndResult(
                    ok=False, error_kind="internal", error=repr(exc)
                )
            service = time.perf_counter() - start
            status = "ok" if outcome.ok else outcome.error_kind
            metrics.counter(
                "qd_server_requests_total",
                "server requests by outcome",
                labels={"op": request.op, "status": status},
            ).inc()
            metrics.histogram(
                "qd_server_request_seconds",
                "service time of executed requests",
                labels={"op": request.op},
            ).observe(service)
            with self._state_lock:
                self.stats["completed"] += 1
            request.future.set_result(
                ServerResponse(
                    op=request.op,
                    status=status,
                    value=outcome.value,
                    retriable=outcome.retriable,
                    error=outcome.error,
                    queue_wait_s=wait,
                    service_s=service,
                )
            )
            self._queue.task_done()

    # -- lifecycle -----------------------------------------------------
    @property
    def accepting(self) -> bool:
        return self._accepting

    @property
    def queue_depth(self) -> int:
        return self._queue.qsize()

    def drain(self, timeout_s: Optional[float] = None) -> bool:
        """Stop admissions and wait for queued work to finish.

        Returns True when the queue fully drained within the timeout
        (``None`` uses the configured drain timeout; ``0`` waits
        forever).  New submissions during and after a drain are shed
        with reason ``draining``.
        """
        with self._state_lock:
            self._accepting = False
        budget = (
            self.config.drain_timeout_s if timeout_s is None else timeout_s
        )
        deadline = None if budget == 0 else time.monotonic() + budget
        while self._queue.unfinished_tasks:
            if deadline is not None and time.monotonic() > deadline:
                return False
            time.sleep(0.001)
        return True

    def close(self, *, drain: bool = True) -> bool:
        """Drain (optionally), stop the workers, and join them."""
        drained = self.drain() if drain else True
        with self._state_lock:
            self._accepting = False
        for _ in self._workers:
            self._queue.put(_STOP)
        for thread in self._workers:
            thread.join(timeout=5.0)
        self._workers = []
        return drained

    def __enter__(self) -> "QDServer":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()
