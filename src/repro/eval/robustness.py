"""User-noise robustness sweeps.

The paper averages over 20 students and notes relevance feedback "is
user subjective" (§5.2).  This experiment quantifies how QD's quality
degrades as the simulated user gets worse — overlooking relevant
thumbnails (miss rate) and marking irrelevant ones (false-mark rate) —
compared with the MV baseline under the same noisy user.

The interesting mechanism: a missed mark costs QD a *branch* (a whole
subconcept can drop out → GTIR), while a false mark plants a spurious
subquery whose results are junk (→ precision).  For MV both noise kinds
only perturb the single query centroid.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence

import numpy as np

from repro.baselines.mv import MultipleViewpoints
from repro.core.engine import QueryDecompositionEngine
from repro.datasets.queryset import TABLE1_QUERIES, QuerySpec
from repro.errors import EvaluationError, SessionStateError
from repro.eval.protocol import run_baseline_session, run_qd_session
from repro.eval.reporting import format_table
from repro.utils.rng import RandomState, derive_rng, ensure_rng, spawn_seeds


@dataclass(frozen=True)
class RobustnessPoint:
    """Quality of both techniques at one noise level."""

    miss_rate: float
    false_mark_rate: float
    qd_precision: float
    qd_gtir: float
    mv_precision: float
    mv_gtir: float


@dataclass
class RobustnessResult:
    """Noise sweep outcome.

    ``skipped_sessions`` counts the QD sessions that ended with no
    relevance marks; each one scored 0.0 precision and GTIR.
    """

    points: List[RobustnessPoint]
    skipped_sessions: int = 0

    def format(self) -> str:
        """Aligned sweep table."""
        return format_table(
            ["miss rate", "false-mark rate",
             "QD precision", "QD GTIR", "MV precision", "MV GTIR"],
            [
                (p.miss_rate, p.false_mark_rate, p.qd_precision,
                 p.qd_gtir, p.mv_precision, p.mv_gtir)
                for p in self.points
            ],
            title="User-noise robustness sweep (QD vs MV)",
        )


def run_noise_sweep(
    engine: QueryDecompositionEngine,
    *,
    noise_levels: Sequence[tuple[float, float]] = (
        (0.0, 0.0),
        (0.1, 0.0),
        (0.3, 0.05),
        (0.5, 0.10),
    ),
    queries: Sequence[QuerySpec] | None = None,
    trials: int = 2,
    seed: RandomState = None,
) -> RobustnessResult:
    """Sweep (miss_rate, false_mark_rate) for QD and MV.

    ``noise_levels`` are (miss, false-mark) pairs; quality is averaged
    over ``queries`` (default: a scattered-query subset of Table 1) and
    ``trials`` simulated users each.
    """
    if not noise_levels:
        raise EvaluationError("need at least one noise level")
    if trials < 1:
        raise EvaluationError("trials must be >= 1")
    database = engine.database
    query_set = (
        list(queries)
        if queries is not None
        else [q for q in TABLE1_QUERIES
              if q.name in ("person", "bird", "computer", "rose")]
    )
    rng = ensure_rng(seed)
    points: List[RobustnessPoint] = []
    skipped = 0
    for miss, false_mark in noise_levels:
        qd_p, qd_g, mv_p, mv_g = [], [], [], []
        for query in query_set:
            seeds = spawn_seeds(
                int(
                    derive_rng(
                        rng, f"{query.name}:{miss}:{false_mark}"
                    ).integers(2**31)
                ),
                trials,
            )
            for trial_seed in seeds:
                try:
                    result, _ = run_qd_session(
                        engine,
                        query,
                        seed=trial_seed,
                        miss_rate=miss,
                        false_mark_rate=false_mark,
                    )
                    qd_p.append(result.stats["precision"])
                    qd_g.append(result.stats["gtir"])
                except SessionStateError:
                    # Extreme noise can leave a session with no marks.
                    skipped += 1
                    qd_p.append(0.0)
                    qd_g.append(0.0)
                mv = MultipleViewpoints(database, seed=trial_seed)
                records = run_baseline_session(
                    mv,
                    query,
                    seed=trial_seed,
                    miss_rate=miss,
                    false_mark_rate=false_mark,
                )
                mv_p.append(records[-1].precision)
                mv_g.append(records[-1].gtir)
        points.append(
            RobustnessPoint(
                miss_rate=float(miss),
                false_mark_rate=float(false_mark),
                qd_precision=float(np.mean(qd_p)),
                qd_gtir=float(np.mean(qd_g)),
                mv_precision=float(np.mean(mv_p)),
                mv_gtir=float(np.mean(mv_g)),
            )
        )
    return RobustnessResult(points=points, skipped_sessions=skipped)
