"""The one worker pool behind every fan-out in the repo.

Final-round subqueries (§3.3) and the shard router's scatter both need
the same thing: run ``fn(shared, item)`` per item and get the results
back **in item order**, so the caller's sequential merge is
deterministic and the outcome is bit-identical whichever kind ran it.  :class:`WorkerPool` is
that ``map``, in three kinds:

``serial``
    In-line on the calling thread.  The reference.
``thread``
    A thread pool over shared memory (NumPy kernels release the GIL,
    the Python around them does not).  Worker spans adopt the
    dispatching span, so traces still reconstruct one tree.
``process``
    A fork pool for GIL-free compute.  ``shared`` reaches the workers
    by fork inheritance — never pickled; only ``(fn, item)`` and the
    result cross the pipe.  The workers hold a *snapshot*, so the pool
    re-forks when ``shared`` is another object or the caller's ``key``
    changed.  Each task runs under a private tracer and metrics
    registry, shipped home with its disk-access delta and grafted under
    the dispatching span.  Without ``fork`` the kind degrades to
    ``thread``.

One lock covers *ensure the backing pool + submit every item*; results
are collected outside it.  Callers sharing a pool (the serving
front-end's worker threads) thus never submit to a pool that is being
replaced, and a replaced pool's ``shutdown(wait=True)`` only waits for
work already submitted.
"""

from __future__ import annotations

import os
import threading
from typing import Any, Callable, Hashable, List, Sequence, Tuple

from repro.config import EXECUTOR_KINDS
from repro.errors import ConfigurationError
from repro.obs import MetricsRegistry, Tracer, get_metrics, get_tracer
from repro.obs.metrics import use_metrics
from repro.obs.trace import span_from_dict, use_tracer


def default_worker_count() -> int:
    """The automatic worker count: the machine's CPU count (min 1)."""
    return max(1, os.cpu_count() or 1)


def fork_available() -> bool:
    """Whether the fork start method exists on this platform."""
    import multiprocessing

    return "fork" in multiprocessing.get_all_start_methods()


# What a worker process was forked with.  Only ever set in a child, by
# the pool initializer (whose argument fork inherits as plain memory),
# so pools of different owners cannot cross their state.
_WORKER_SHARED: Any = None


def _adopt_shared(shared: Any) -> None:
    global _WORKER_SHARED
    _WORKER_SHARED = shared


def _process_entry(args: Tuple[Callable, Any]) -> Tuple[Any, Any, list, dict]:
    """Worker-process entry point: run one task, capture observability.

    The parent's live tracer, registry and disk counter are unreachable
    across the process boundary, so the task records into fresh local
    ones that travel home beside the result.
    """
    fn, item = args
    shared = _WORKER_SHARED
    io = getattr(shared, "io", None)
    marker = io.delta_marker() if io is not None else None
    tracer = Tracer()
    registry = MetricsRegistry()
    with use_tracer(tracer), use_metrics(registry):
        result = fn(shared, item)
    delta = io.delta_since(marker) if io is not None else None
    return result, delta, tracer.to_dicts(), registry.to_payload()


def _graft(shared: Any, result: Any, delta: Any, spans: list, payload: dict):
    """Fold a worker process's observability into the parent."""
    if delta is not None:
        shared.io.merge_delta(delta)
    metrics = get_metrics()
    if metrics.enabled:
        metrics.merge_payload(payload)
    tracer = get_tracer()
    if tracer.enabled:
        parent = tracer.current
        siblings = tracer.spans if parent is None else parent.children
        siblings.extend(span_from_dict(tracer, span) for span in spans)
    return result


class WorkerPool:
    """Order-preserving ``map`` over a serial, thread or fork pool.

    The backing pool is created lazily and reused across calls; the
    object is a context manager and usable again after :meth:`close`.
    ``workers=0`` picks the CPU count.  A pool object inherited through
    ``fork`` starts over in the child (the parent's worker threads do
    not exist there, and its lock may have been held).
    """

    def __init__(
        self, kind: str, workers: int = 0, *, name: str = "qd-pool"
    ) -> None:
        if kind not in EXECUTOR_KINDS:
            raise ConfigurationError(
                f"executor must be one of {EXECUTOR_KINDS}, got {kind!r}"
            )
        if kind == "process" and not fork_available():
            kind = "thread"  # pragma: no cover - non-POSIX
        self.kind = kind
        self.workers = (
            1 if kind == "serial" else workers or default_worker_count()
        )
        self._name = name
        self._reset()

    def _reset(self) -> None:
        self._lock = threading.Lock()
        self._pool: Any = None
        self._fork_key: Any = None
        self._pid = os.getpid()

    def map(
        self,
        fn: Callable[[Any, Any], Any],
        items: Sequence[Any],
        shared: Any = None,
        *,
        key: Hashable = None,
    ) -> List[Any]:
        """Run ``fn(shared, item)`` for every item, in item order.

        The ``process`` kind pickles ``fn`` by reference (it must be a
        module-level function there) and is the only one ``key`` matters
        to: pass a value that changes whenever ``shared`` was mutated in
        place, so the workers are re-forked instead of answering from a
        stale snapshot.  At most one item has nothing to overlap and
        runs in-line.  A task's exception propagates (the first in item
        order); the pool stays usable.
        """
        if self.kind == "serial" or len(items) <= 1:
            return [fn(shared, item) for item in items]
        forked = self.kind == "process"
        if forked:
            call, args = _process_entry, [(fn, item) for item in items]
        else:
            tracer = get_tracer()
            parent_span = tracer.current

            def call(item: Any) -> Any:
                # Adopt the dispatching span so worker spans attach to
                # the caller's tree instead of becoming detached roots.
                with tracer.adopt(parent_span):
                    return fn(shared, item)

            args = items
        if self._pid != os.getpid():
            self._reset()
        with self._lock:
            fork_key = (id(shared), key)
            if forked and self._pool is not None and self._fork_key != fork_key:
                self._pool.shutdown(wait=True)  # its snapshot is stale
                self._pool = None
            if self._pool is None and forked:
                import multiprocessing
                from concurrent.futures import ProcessPoolExecutor

                self._pool = ProcessPoolExecutor(
                    max_workers=self.workers,
                    mp_context=multiprocessing.get_context("fork"),
                    initializer=_adopt_shared,
                    initargs=(shared,),
                )
                self._fork_key = fork_key
            elif self._pool is None:
                from concurrent.futures import ThreadPoolExecutor

                self._pool = ThreadPoolExecutor(
                    max_workers=self.workers, thread_name_prefix=self._name
                )
            futures = [self._pool.submit(call, arg) for arg in args]
        try:
            results = [future.result() for future in futures]
        finally:
            for future in futures:
                future.cancel()  # no-op unless a task above raised
        if forked:
            results = [_graft(shared, *shipped) for shipped in results]
        return results

    def close(self) -> None:
        """Release the backing pool (idempotent; the pool is reusable)."""
        if self._pid != os.getpid():
            self._reset()
        with self._lock:
            if self._pool is not None:
                self._pool.shutdown(wait=True)
                self._pool = None

    def __enter__(self) -> "WorkerPool":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()
