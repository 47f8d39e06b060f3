"""The Query Decomposition core (paper §3).

* :mod:`repro.core.subquery` — localized subquery state,
* :mod:`repro.core.session` — the multi-round feedback session: display
  representatives, accept relevance marks, descend the RFS hierarchy
  along multiple paths,
* :mod:`repro.core.session_state` — the serializable
  :class:`SessionState` record that externalizes a session so any
  worker can resume it (stored via :mod:`repro.sessionstore`),
* :mod:`repro.core.ranking` — the final localized multipoint k-NN
  computation, proportional merge, and group ranking (§3.3–3.4),
* :mod:`repro.core.presentation` — result groups and flattened views,
* :mod:`repro.core.engine` — the user-facing
  :class:`QueryDecompositionEngine`.
"""

from repro._lazy import lazy_exports

__all__ = [
    "QueryDecompositionEngine",
    "QueryResult",
    "ResultGroup",
    "FeedbackSession",
    "FrontEndResult",
    "SessionFrontEnd",
    "SessionState",
    "SubQuery",
    "SubQueryState",
]

__getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "repro.core.clientserver": (
            "FrontEndResult",
            "SessionFrontEnd",
        ),
        "repro.core.engine": ("QueryDecompositionEngine",),
        "repro.core.presentation": ("QueryResult", "ResultGroup"),
        "repro.core.session": ("FeedbackSession",),
        "repro.core.session_state": ("SessionState", "SubQueryState"),
        "repro.core.subquery": ("SubQuery",),
    },
)
