"""Evaluation harness: metrics, simulated users, and experiment drivers.

* :mod:`repro.eval.metrics` — precision/recall and the paper's GTIR
  (ground truth inclusion ratio),
* :mod:`repro.eval.oracle` — the simulated user (relevance marks from
  category ground truth, with optional noise modelling the 20 students),
* :mod:`repro.eval.protocol` — round-by-round drivers for QD and for the
  k-NN-family baselines,
* :mod:`repro.eval.experiments` — one function per paper table/figure,
* :mod:`repro.eval.reporting` — ASCII tables and series.
"""

from repro._lazy import lazy_exports

__all__ = [
    "gtir",
    "precision_at",
    "recall_at",
    "retrieved_subconcepts",
    "SimulatedUser",
    "BaselineRoundRecord",
    "QDRoundRecord",
    "run_baseline_session",
    "run_qd_session",
]

__getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "repro.eval.metrics": (
            "gtir",
            "precision_at",
            "recall_at",
            "retrieved_subconcepts",
        ),
        "repro.eval.oracle": ("SimulatedUser",),
        "repro.eval.protocol": (
            "BaselineRoundRecord",
            "QDRoundRecord",
            "run_baseline_session",
            "run_qd_session",
        ),
    },
)
