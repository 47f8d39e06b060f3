"""The worker pool behind the shard router's fan-out.

The router's scatter needs to run ``fn(shared, item)`` per shard and
get the results back **in item order**, so the gather is deterministic
and the outcome is bit-identical whichever kind ran it.
:class:`WorkerPool` is that ``map``, in two kinds:

``serial``
    In-line on the calling thread.  The reference.
``thread``
    A thread pool over shared memory (NumPy kernels release the GIL,
    the Python around them does not).  Worker spans adopt the
    dispatching span, so traces still reconstruct one tree.

One lock covers *ensure the backing pool + submit every item*; results
are collected outside it.  Callers sharing a pool (the serving
front-end's worker threads) thus never submit to a pool that is being
closed, and ``shutdown(wait=True)`` only waits for work already
submitted.
"""

from __future__ import annotations

import os
import threading
from typing import Any, Callable, List, Sequence

from repro.errors import ConfigurationError
from repro.obs import get_tracer

#: The kinds of :class:`WorkerPool`.
POOL_KINDS: tuple[str, ...] = ("serial", "thread")


def default_worker_count() -> int:
    """The automatic worker count: the machine's CPU count (min 1)."""
    return max(1, os.cpu_count() or 1)


class WorkerPool:
    """Order-preserving ``map`` over a serial or thread pool.

    The backing pool is created lazily and reused across calls; the
    object is a context manager and usable again after :meth:`close`.
    ``workers=0`` picks the CPU count.
    """

    def __init__(
        self, kind: str, workers: int = 0, *, name: str = "qd-pool"
    ) -> None:
        if kind not in POOL_KINDS:
            raise ConfigurationError(
                f"pool kind must be one of {POOL_KINDS}, got {kind!r}"
            )
        self.kind = kind
        self.workers = (
            1 if kind == "serial" else workers or default_worker_count()
        )
        self._name = name
        self._lock = threading.Lock()
        self._pool: Any = None

    def map(
        self,
        fn: Callable[[Any, Any], Any],
        items: Sequence[Any],
        shared: Any = None,
    ) -> List[Any]:
        """Run ``fn(shared, item)`` for every item, in item order.

        At most one item has nothing to overlap and runs in-line.  A
        task's exception propagates (the first in item order); the pool
        stays usable.
        """
        if self.kind == "serial" or len(items) <= 1:
            return [fn(shared, item) for item in items]
        tracer = get_tracer()
        parent_span = tracer.current

        def call(item: Any) -> Any:
            # Adopt the dispatching span so worker spans attach to the
            # caller's tree instead of becoming detached roots.
            with tracer.adopt(parent_span):
                return fn(shared, item)

        with self._lock:
            if self._pool is None:
                from concurrent.futures import ThreadPoolExecutor

                self._pool = ThreadPoolExecutor(
                    max_workers=self.workers, thread_name_prefix=self._name
                )
            futures = [self._pool.submit(call, item) for item in items]
        try:
            return [future.result() for future in futures]
        finally:
            for future in futures:
                future.cancel()  # no-op unless a task above raised

    def close(self) -> None:
        """Release the backing pool (idempotent; the pool is reusable)."""
        with self._lock:
            if self._pool is not None:
                self._pool.shutdown(wait=True)
                self._pool = None

    def __enter__(self) -> "WorkerPool":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()
