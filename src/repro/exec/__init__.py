"""Query execution: the final round's subqueries.

:mod:`repro.exec.executors` runs the final-round subqueries in-line on
the calling thread, in submission order.
"""

from repro._lazy import lazy_exports

__all__ = [
    "OVERFETCH",
    "SerialSubqueryExecutor",
    "SubqueryOutcome",
    "SubqueryTask",
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
    },
)
