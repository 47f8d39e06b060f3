"""Query execution: the final round's subqueries and one worker pool.

:mod:`repro.exec.executors` runs the final-round subqueries in-line on
the calling thread, in submission order.  :mod:`repro.exec.pool` is the
order-preserving serial / thread pool the shard router fans out over.
"""

from repro._lazy import lazy_exports

__all__ = [
    "OVERFETCH",
    "SerialSubqueryExecutor",
    "SubqueryOutcome",
    "SubqueryTask",
    "WorkerPool",
    "default_worker_count",
    "run_subquery_task",
]

__getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "repro.exec.executors": (
            "OVERFETCH",
            "SerialSubqueryExecutor",
            "SubqueryOutcome",
            "SubqueryTask",
            "run_subquery_task",
        ),
        "repro.exec.pool": ("WorkerPool", "default_worker_count"),
    },
)
