"""Parallel execution of queries: one worker pool.

:mod:`repro.exec.pool` is the order-preserving serial / thread / fork
pool every fan-out in the repo runs on (final-round subqueries and the
shard router; the offline build runs on the calling thread).
:mod:`repro.exec.executors` maps the final-round subqueries over it
with the determinism guarantee (serial, thread, and process execution
return bit-identical rankings).
"""

from repro._lazy import lazy_exports

__all__ = [
    "OVERFETCH",
    "ProcessSubqueryExecutor",
    "SerialSubqueryExecutor",
    "SubqueryExecutor",
    "SubqueryOutcome",
    "SubqueryTask",
    "ThreadedSubqueryExecutor",
    "WorkerPool",
    "build_executor",
    "default_worker_count",
    "resolve_executor",
    "run_subquery_task",
]

__getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "repro.exec.executors": (
            "OVERFETCH",
            "ProcessSubqueryExecutor",
            "SerialSubqueryExecutor",
            "SubqueryExecutor",
            "SubqueryOutcome",
            "SubqueryTask",
            "ThreadedSubqueryExecutor",
            "build_executor",
            "resolve_executor",
            "run_subquery_task",
        ),
        "repro.exec.pool": ("WorkerPool", "default_worker_count"),
    },
)
