"""Round-by-round evaluation protocols.

Two drivers mirror the paper's §5.2 methodology:

* :func:`run_qd_session` — the Query Decomposition protocol: feedback
  rounds over representative displays (no retrieval, so no precision,
  until the final round), then the localized k-NN merge.  GTIR during
  feedback is measured over the cumulative relevant images the user has
  identified, which is what Table 2 reports for rounds 1–2.
* :func:`run_baseline_session` — the k-NN-family protocol: each round
  retrieves k images, measures precision/GTIR of that result set, and
  feeds the relevant ones back.

Following §5.2.1, the number of retrieved images defaults to the size of
the ground truth, making precision and recall equal.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from repro.baselines.base import FeedbackTechnique
from repro.core.engine import DEFAULT_BROWSE_SCREENS, QueryDecompositionEngine
from repro.core.presentation import QueryResult
from repro.datasets.database import ImageDatabase
from repro.datasets.queryset import QuerySpec
from repro.errors import EvaluationError
from repro.eval.metrics import gtir, precision_at
from repro.eval.oracle import SimulatedUser
from repro.utils.rng import RandomState, derive_rng, ensure_rng

#: Re-exported for the experiment drivers: the per-round browse budget
#: (screens of 21 images) of the default persistent-user model.
DEFAULT_SCREENS: Tuple[int, ...] = DEFAULT_BROWSE_SCREENS


@dataclass(frozen=True)
class QDRoundRecord:
    """Per-round state of a QD session (Table 2's QD columns)."""

    round: int
    n_subqueries: int
    n_marked: int
    gtir: float
    precision: Optional[float]  # None before the final round


@dataclass(frozen=True)
class BaselineRoundRecord:
    """Per-round result quality of a baseline (Table 2's MV columns)."""

    round: int
    precision: float
    gtir: float


def default_k(database: ImageDatabase, query: QuerySpec) -> int:
    """The paper's result size: the number of ground-truth images."""
    size = database.ground_truth_size(sorted(query.relevant_categories()))
    if size == 0:
        raise EvaluationError(
            f"query {query.name!r} has no ground truth in this database"
        )
    return size


def run_qd_session(
    engine: QueryDecompositionEngine,
    query: QuerySpec,
    *,
    k: Optional[int] = None,
    rounds: int = 3,
    screens_per_round: Sequence[int] | int = DEFAULT_SCREENS,
    seed: RandomState = None,
    miss_rate: float = 0.0,
    false_mark_rate: float = 0.0,
) -> Tuple[QueryResult, List[QDRoundRecord]]:
    """Run one oracle-driven QD session; return result + round records."""
    database = engine.database
    rng = ensure_rng(seed)
    user = SimulatedUser(
        database,
        query,
        seed=derive_rng(rng, "user"),
        miss_rate=miss_rate,
        false_mark_rate=false_mark_rate,
    )
    k_final = k if k is not None else default_k(database, query)
    records: List[QDRoundRecord] = []

    def snapshot(round_no: int, session) -> None:
        marked = session.marked_ids
        records.append(
            QDRoundRecord(
                round=round_no,
                n_subqueries=session.n_subqueries,
                n_marked=len(marked),
                gtir=gtir(marked, database, query) if marked else 0.0,
                precision=None,
            )
        )

    result = engine.run_scripted(
        mark_fn=user.mark,
        k=k_final,
        rounds=rounds,
        screens_per_round=screens_per_round,
        seed=derive_rng(rng, "engine"),
        round_callback=snapshot,
    )
    final_ids = result.flatten(k_final)
    final_precision = precision_at(final_ids, database, query)
    final_gtir = gtir(final_ids, database, query)
    if records:
        last = records[-1]
        records[-1] = QDRoundRecord(
            round=last.round,
            n_subqueries=last.n_subqueries,
            n_marked=last.n_marked,
            gtir=final_gtir,
            precision=final_precision,
        )
    result.stats["precision"] = final_precision
    result.stats["gtir"] = final_gtir
    result.stats["k"] = float(k_final)
    return result, records


def run_baseline_session(
    technique: FeedbackTechnique,
    query: QuerySpec,
    *,
    k: Optional[int] = None,
    rounds: int = 3,
    seed: RandomState = None,
    miss_rate: float = 0.0,
    false_mark_rate: float = 0.0,
    example_subconcept: Optional[int] = None,
) -> List[BaselineRoundRecord]:
    """Run one oracle-driven baseline session; return round records.

    The session starts from a single example image drawn from one
    subconcept (``example_subconcept``; random when omitted) — the
    query-by-example setting in which single-neighbourhood techniques
    exhibit their confinement.
    """
    database = technique.database
    rng = ensure_rng(seed)
    user = SimulatedUser(
        database,
        query,
        seed=derive_rng(rng, "user"),
        miss_rate=miss_rate,
        false_mark_rate=false_mark_rate,
    )
    k_final = k if k is not None else default_k(database, query)
    sub_idx = (
        example_subconcept
        if example_subconcept is not None
        else int(ensure_rng(derive_rng(rng, "pick")).integers(
            len(query.subconcepts)
        ))
    )
    technique.begin([user.pick_example(subconcept_index=sub_idx)])
    records: List[BaselineRoundRecord] = []
    for round_no in range(1, rounds + 1):
        ranked = technique.retrieve(k_final)
        ids = ranked.ids()
        records.append(
            BaselineRoundRecord(
                round=round_no,
                precision=precision_at(ids, database, query),
                gtir=gtir(ids, database, query),
            )
        )
        technique.feedback(user.mark(ids))
    return records
