"""Experiment drivers — one function per paper table/figure.

Every driver returns a small result dataclass whose ``format()`` method
prints the same rows/series the paper reports.  The benchmark harness
under ``benchmarks/`` wraps these functions; the index in DESIGN.md maps
each to its table/figure.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.baselines.mv import MultipleViewpoints
from repro.clustering.pca import PCA
from repro.clustering.quality import (
    cluster_separation_ratio,
    pairwise_centroid_distances,
    silhouette_score,
)
from repro.config import QDConfig, RFSConfig
from repro.core.engine import QueryDecompositionEngine
from repro.datasets.build import build_synthetic_database
from repro.datasets.database import ImageDatabase
from repro.datasets.queryset import TABLE1_QUERIES, QuerySpec, get_query
from repro.errors import EvaluationError
from repro.eval.metrics import gtir, precision_at, retrieved_subconcepts
from repro.eval.oracle import SimulatedUser
from repro.eval.protocol import (
    DEFAULT_SCREENS,
    default_k,
    run_baseline_session,
    run_qd_session,
)
from repro.eval.reporting import format_series, format_table
from repro.obs import Tracer, get_tracer, phase_durations, use_tracer
from repro.utils.rng import RandomState, derive_rng, ensure_rng, spawn_seeds

#: Oracle noise used in the quality experiments: the paper's 20 students
#: overlooked some relevant thumbnails; a 10 % miss rate models that.
STUDENT_MISS_RATE = 0.10


# ---------------------------------------------------------------------------
# Table 1 — per-query precision & GTIR, MV vs QD
# ---------------------------------------------------------------------------
@dataclass
class Table1Row:
    """One query's outcome for both techniques."""

    query: str
    description: str
    mv_precision: float
    mv_gtir: float
    qd_precision: float
    qd_gtir: float


@dataclass
class Table1Result:
    """Full Table 1: one row per query plus the averages row."""

    rows: List[Table1Row]

    def averages(self) -> Table1Row:
        """Mean over the query rows (the paper's 'Average' row)."""
        if not self.rows:
            raise EvaluationError("Table 1 has no rows")
        n = len(self.rows)
        return Table1Row(
            query="average",
            description="Average",
            mv_precision=sum(r.mv_precision for r in self.rows) / n,
            mv_gtir=sum(r.mv_gtir for r in self.rows) / n,
            qd_precision=sum(r.qd_precision for r in self.rows) / n,
            qd_gtir=sum(r.qd_gtir for r in self.rows) / n,
        )

    def format(self) -> str:
        """The Table-1 layout: query | MV P/GTIR | QD P/GTIR."""
        avg = self.averages()
        table_rows = [
            (
                r.description,
                r.mv_precision,
                r.mv_gtir,
                r.qd_precision,
                r.qd_gtir,
            )
            for r in self.rows
        ]
        table_rows.append(
            ("Average", avg.mv_precision, avg.mv_gtir,
             avg.qd_precision, avg.qd_gtir)
        )
        return format_table(
            ["Query", "MV Precision", "MV GTIR",
             "QD Precision", "QD GTIR"],
            table_rows,
            title="Table 1. Various Query Evaluation in QD & MV approaches",
            float_format="{:.2f}",
        )


def run_table1(
    engine: QueryDecompositionEngine,
    *,
    queries: Sequence[QuerySpec] = TABLE1_QUERIES,
    rounds: int = 3,
    trials: int = 3,
    seed: RandomState = None,
    miss_rate: float = STUDENT_MISS_RATE,
    screens_per_round: Sequence[int] | int = DEFAULT_SCREENS,
) -> Table1Result:
    """Reproduce Table 1: QD vs MV over the 11 test queries.

    ``trials`` independent oracle users per query are averaged (the paper
    averaged 20 students).
    """
    database = engine.database
    rng = ensure_rng(seed)
    rows: List[Table1Row] = []
    for query in queries:
        qd_p, qd_g, mv_p, mv_g = [], [], [], []
        for trial_seed in spawn_seeds(
            int(derive_rng(rng, f"q:{query.name}").integers(2**31)), trials
        ):
            result, _ = run_qd_session(
                engine,
                query,
                rounds=rounds,
                seed=trial_seed,
                miss_rate=miss_rate,
                screens_per_round=screens_per_round,
            )
            qd_p.append(result.stats["precision"])
            qd_g.append(result.stats["gtir"])
            mv = MultipleViewpoints(database, seed=trial_seed)
            records = run_baseline_session(
                mv, query, rounds=rounds, seed=trial_seed,
                miss_rate=miss_rate,
            )
            mv_p.append(records[-1].precision)
            mv_g.append(records[-1].gtir)
        rows.append(
            Table1Row(
                query=query.name,
                description=query.description,
                mv_precision=float(np.mean(mv_p)),
                mv_gtir=float(np.mean(mv_g)),
                qd_precision=float(np.mean(qd_p)),
                qd_gtir=float(np.mean(qd_g)),
            )
        )
    return Table1Result(rows=rows)


# ---------------------------------------------------------------------------
# Table 2 — round-by-round quality comparison
# ---------------------------------------------------------------------------
@dataclass
class Table2Row:
    """One feedback round's averages for both techniques."""

    round: int
    mv_precision: float
    mv_gtir: float
    qd_precision: Optional[float]  # None (n/a) before the final round
    qd_gtir: float


@dataclass
class Table2Result:
    """Full Table 2: per-round averages over the 11 queries."""

    rows: List[Table2Row]

    def format(self) -> str:
        """The Table-2 layout."""
        return format_table(
            ["Round", "MV Precision", "MV GTIR",
             "QD Precision", "QD GTIR"],
            [
                (r.round, r.mv_precision, r.mv_gtir,
                 r.qd_precision, r.qd_gtir)
                for r in self.rows
            ],
            title="Table 2. Quality Comparison (3-round relevance feedback)",
            float_format="{:.3f}",
        )


def run_table2(
    engine: QueryDecompositionEngine,
    *,
    queries: Sequence[QuerySpec] = TABLE1_QUERIES,
    rounds: int = 3,
    trials: int = 3,
    seed: RandomState = None,
    miss_rate: float = STUDENT_MISS_RATE,
    screens_per_round: Sequence[int] | int = DEFAULT_SCREENS,
) -> Table2Result:
    """Reproduce Table 2: per-round precision and GTIR averages."""
    database = engine.database
    rng = ensure_rng(seed)
    qd_gtir_acc = np.zeros(rounds)
    qd_prec_final: List[float] = []
    mv_prec_acc = np.zeros(rounds)
    mv_gtir_acc = np.zeros(rounds)
    n_sessions = 0
    for query in queries:
        for trial_seed in spawn_seeds(
            int(derive_rng(rng, f"q:{query.name}").integers(2**31)), trials
        ):
            result, records = run_qd_session(
                engine,
                query,
                rounds=rounds,
                seed=trial_seed,
                miss_rate=miss_rate,
                screens_per_round=screens_per_round,
            )
            for rec in records:
                qd_gtir_acc[rec.round - 1] += rec.gtir
            qd_prec_final.append(result.stats["precision"])
            mv = MultipleViewpoints(database, seed=trial_seed)
            mv_records = run_baseline_session(
                mv, query, rounds=rounds, seed=trial_seed,
                miss_rate=miss_rate,
            )
            for rec in mv_records:
                mv_prec_acc[rec.round - 1] += rec.precision
                mv_gtir_acc[rec.round - 1] += rec.gtir
            n_sessions += 1
    rows = []
    for r in range(rounds):
        rows.append(
            Table2Row(
                round=r + 1,
                mv_precision=float(mv_prec_acc[r] / n_sessions),
                mv_gtir=float(mv_gtir_acc[r] / n_sessions),
                qd_precision=(
                    float(np.mean(qd_prec_final)) if r == rounds - 1 else None
                ),
                qd_gtir=float(qd_gtir_acc[r] / n_sessions),
            )
        )
    return Table2Result(rows=rows)


# ---------------------------------------------------------------------------
# Figure 1 — PCA scattering of the white-sedan pose clusters
# ---------------------------------------------------------------------------
SEDAN_POSES = ("sedan_side", "sedan_front", "sedan_back", "sedan_angle")


@dataclass
class Figure1Result:
    """PCA evidence for Figure 1: pose clusters are distinct."""

    projection: np.ndarray
    pose_labels: np.ndarray
    pose_names: Tuple[str, ...]
    silhouette: float
    separation_ratio: float
    centroid_distances: np.ndarray
    explained_variance_ratio: np.ndarray
    knn_pose_purity: float
    knn_all_pose_precision: float

    def format(self) -> str:
        """Summary of the cluster structure the paper's Figure 1 shows."""
        lines = [
            "Figure 1. White-sedan pose clusters in PCA(3) space",
            f"  images: {self.projection.shape[0]}   "
            f"explained variance (3 PCs): "
            f"{self.explained_variance_ratio.sum():.2f}",
            f"  silhouette over poses: {self.silhouette:.3f} "
            "(> 0 means pose clusters are distinct)",
            f"  min inter-centroid / max spread: "
            f"{self.separation_ratio:.3f}",
            f"  k-NN pose purity: {self.knn_pose_purity:.0%} of a sedan "
            "image's nearest sedan neighbours share its pose "
            "(single neighbourhoods are pose-local)",
            f"  precision of one k-NN neighbourhood sized to cover all "
            f"poses: {self.knn_all_pose_precision:.2f} "
            "(large k drags in irrelevant images — the poor-precision "
            "side of §1.1)",
            "  inter-pose centroid distances:",
        ]
        n = len(self.pose_names)
        for i in range(n):
            for j in range(i + 1, n):
                lines.append(
                    f"    {self.pose_names[i]:12s} <-> "
                    f"{self.pose_names[j]:12s} "
                    f"{self.centroid_distances[i, j]:.3f}"
                )
        return "\n".join(lines)


def run_figure1(
    database: ImageDatabase, *, k_neighbours: int = 15
) -> Figure1Result:
    """Reproduce Figure 1: PCA projection of white-sedan images.

    Reports the measurable content of the scatter plot:

    * the four pose clusters are separated in PCA space (silhouette,
      separation ratio, inter-centroid distances);
    * small k-NN neighbourhoods are pose-local (*pose purity*): the
      sedan images among a query's nearest neighbours mostly share its
      pose — so single-neighbourhood retrieval misses the other poses;
    * a neighbourhood enlarged until it spans all four poses has poor
      precision — the irrelevant "triangles" scattered between the
      clusters leak in (§1.1's poor-precision trade-off).
    """
    missing = [
        p for p in SEDAN_POSES if p not in database.category_names
    ]
    if missing:
        raise EvaluationError(
            f"database lacks the sedan pose categories {missing}; "
            "Figure 1 needs the rendered dataset backend"
        )
    ids_per_pose = [database.ids_of_category(p) for p in SEDAN_POSES]
    for pose, ids in zip(SEDAN_POSES, ids_per_pose):
        if ids.shape[0] == 0:
            raise EvaluationError(f"database has no {pose!r} images")
    ids = np.concatenate(ids_per_pose)
    pose_labels = np.concatenate(
        [np.full(p.shape[0], i) for i, p in enumerate(ids_per_pose)]
    )
    feats = database.features[ids]
    pca = PCA(n_components=3)
    projection = pca.fit_transform(feats)

    sedan_categories = set(SEDAN_POSES)
    all_feats = database.features
    purity_values: List[float] = []
    all_pose_precision: List[float] = []
    probe_count = min(40, feats.shape[0])
    for row, label in zip(feats[:probe_count], pose_labels[:probe_count]):
        dists = np.linalg.norm(all_feats - row, axis=1)
        order = np.argsort(dists, kind="stable")
        own_pose = SEDAN_POSES[int(label)]
        # Pose purity among the nearest sedan neighbours.
        neighbours = [
            database.category_of(int(i))
            for i in order[1 : k_neighbours + 1]
        ]
        sedan_hits = [c for c in neighbours if c in sedan_categories]
        if sedan_hits:
            purity_values.append(
                sum(1 for c in sedan_hits if c == own_pose)
                / len(sedan_hits)
            )
        # Grow the neighbourhood until all four poses are covered, then
        # measure its precision.
        seen_poses: set[str] = set()
        radius_count = 0
        for i in order[1:]:
            radius_count += 1
            cat = database.category_of(int(i))
            if cat in sedan_categories:
                seen_poses.add(cat)
                if len(seen_poses) == len(SEDAN_POSES):
                    break
        covered = [
            database.category_of(int(i))
            for i in order[1 : radius_count + 1]
        ]
        all_pose_precision.append(
            sum(1 for c in covered if c in sedan_categories) / len(covered)
        )

    return Figure1Result(
        projection=projection,
        pose_labels=pose_labels,
        pose_names=SEDAN_POSES,
        silhouette=silhouette_score(projection, pose_labels),
        separation_ratio=cluster_separation_ratio(projection, pose_labels),
        centroid_distances=pairwise_centroid_distances(
            projection, pose_labels
        ),
        explained_variance_ratio=pca.explained_variance_ratio_,
        knn_pose_purity=float(np.mean(purity_values)),
        knn_all_pose_precision=float(np.mean(all_pose_precision)),
    )


# ---------------------------------------------------------------------------
# Figures 4–9 — top-k case studies on the computer queries
# ---------------------------------------------------------------------------
@dataclass
class CaseStudyRow:
    """Subconcept distribution of one technique's top-k result."""

    query: str
    technique: str
    k: int
    precision: float
    subconcepts_found: Tuple[str, ...]
    gtir: float
    category_histogram: Dict[str, int]


@dataclass
class CaseStudyResult:
    """Figures 4–9: the checkable content of the screenshots."""

    rows: List[CaseStudyRow]

    def format(self) -> str:
        """Per-query subconcept coverage of the top-k results."""
        out = ["Figures 4-9. Top-k case studies (computer queries)"]
        for row in self.rows:
            cats = ", ".join(
                f"{name}x{count}"
                for name, count in sorted(row.category_histogram.items())
            )
            out.append(
                f"  {row.query:22s} {row.technique:3s} top-{row.k:<3d} "
                f"precision={row.precision:.2f} GTIR={row.gtir:.2f} "
                f"subconcepts={sorted(row.subconcepts_found)}"
            )
            out.append(f"      categories: {cats}")
        return "\n".join(out)


CASE_STUDIES: Tuple[Tuple[str, int], ...] = (
    ("laptop", 8),             # Figures 4, 5 — "portable computer", top 8
    ("personal_computer", 16),  # Figures 6, 7 — top 16
    ("computer", 24),          # Figures 8, 9 — top 24
)


def run_case_studies(
    engine: QueryDecompositionEngine,
    *,
    seed: RandomState = None,
    miss_rate: float = STUDENT_MISS_RATE,
) -> CaseStudyResult:
    """Reproduce Figures 4–9: top-k subconcept coverage, MV vs QD."""
    database = engine.database
    rng = ensure_rng(seed)
    rows: List[CaseStudyRow] = []
    for query_name, k in CASE_STUDIES:
        query = get_query(query_name)
        trial_seed = int(derive_rng(rng, query_name).integers(2**31))
        result, _ = run_qd_session(
            engine, query, k=k, seed=trial_seed, miss_rate=miss_rate
        )
        qd_ids = result.flatten(k)
        mv = MultipleViewpoints(database, seed=trial_seed)
        run_baseline_session(
            mv, query, k=k, rounds=2, seed=trial_seed, miss_rate=miss_rate
        )
        mv_ids = mv.retrieve(k).ids()
        for technique, ids in (("MV", mv_ids), ("QD", qd_ids)):
            histogram: Dict[str, int] = {}
            for image_id in ids:
                cat = database.category_of(image_id)
                histogram[cat] = histogram.get(cat, 0) + 1
            rows.append(
                CaseStudyRow(
                    query=query.description,
                    technique=technique,
                    k=k,
                    precision=precision_at(ids, database, query),
                    subconcepts_found=tuple(
                        sorted(retrieved_subconcepts(ids, database, query))
                    ),
                    gtir=gtir(ids, database, query),
                    category_histogram=histogram,
                )
            )
    return CaseStudyResult(rows=rows)


# ---------------------------------------------------------------------------
# Figures 10 & 11 — scalability of query/iteration processing time
# ---------------------------------------------------------------------------
@dataclass
class ScalabilityPoint:
    """Timing measurements at one database size.

    Means describe the central trend the paper plots; the p95 fields
    expose the boundary-expansion tail a mean hides.
    """

    db_size: int
    overall_query_time: float
    iteration_time: float
    final_knn_time: float
    global_knn_round_time: float
    feedback_page_reads: float
    localized_knn_page_reads: float
    overall_query_time_p95: float = 0.0
    iteration_time_p95: float = 0.0


@dataclass
class ScalabilityResult:
    """Figures 10 and 11: time vs database size series."""

    points: List[ScalabilityPoint]
    n_queries: int

    def format_figure10(self) -> str:
        """Figure 10: overall query processing time vs database size."""
        return format_series(
            "db_size",
            ["overall_query_time_s", "overall_query_time_p95_s"],
            [
                (p.db_size, p.overall_query_time, p.overall_query_time_p95)
                for p in self.points
            ],
            title=(
                f"Figure 10. Overall query processing time "
                f"(avg and p95 over {self.n_queries} simulated queries)"
            ),
        )

    def format_figure11(self) -> str:
        """Figure 11: per-iteration feedback time vs database size.

        The global-k-NN column is the cost a traditional relevance
        feedback round would pay at the same size — the comparison §1.2
        claims RFS wins.
        """
        return format_series(
            "db_size",
            [
                "qd_iteration_time_s",
                "qd_iteration_time_p95_s",
                "global_knn_round_time_s",
            ],
            [
                (
                    p.db_size,
                    p.iteration_time,
                    p.iteration_time_p95,
                    p.global_knn_round_time,
                )
                for p in self.points
            ],
            title=(
                f"Figure 11. Average iteration processing time "
                f"(avg and p95 over {self.n_queries} simulated queries)"
            ),
        )

    def linearity_r2(self) -> float:
        """R² of a linear fit of overall time vs database size."""
        x = np.array([p.db_size for p in self.points], dtype=np.float64)
        y = np.array(
            [p.overall_query_time for p in self.points], dtype=np.float64
        )
        if x.shape[0] < 2:
            raise EvaluationError("need >= 2 sizes for a linearity check")
        coeffs = np.polyfit(x, y, 1)
        fit = np.polyval(coeffs, x)
        ss_res = float(np.sum((y - fit) ** 2))
        ss_tot = float(np.sum((y - y.mean()) ** 2))
        return 1.0 - ss_res / ss_tot if ss_tot > 0 else 1.0


# ---------------------------------------------------------------------------
# Extension — precision/recall vs result-set size
# ---------------------------------------------------------------------------
@dataclass
class PRPoint:
    """Precision/recall of one technique at one relative result size."""

    technique: str
    k_fraction: float
    precision: float
    recall: float


@dataclass
class PRSweepResult:
    """Precision/recall trade-off sweep (extension of §5.2.1).

    The paper fixes the retrieved count at the ground-truth size (where
    precision = recall); this sweep varies it from a fraction to a
    multiple of the ground truth, exposing the whole trade-off §1.1
    discusses (larger k buys recall at the cost of precision).
    """

    points: List[PRPoint]

    def format(self) -> str:
        """Aligned table of the sweep."""
        return format_table(
            ["technique", "k / ground truth", "precision", "recall"],
            [
                (p.technique, p.k_fraction, p.precision, p.recall)
                for p in self.points
            ],
            title=(
                "Precision/recall vs result size "
                "(extension of the §5.2.1 protocol)"
            ),
        )

    def series(self, technique: str) -> List[PRPoint]:
        """Points of one technique, in sweep order."""
        return [p for p in self.points if p.technique == technique]


def run_pr_sweep(
    engine: QueryDecompositionEngine,
    *,
    queries: Sequence[QuerySpec] = TABLE1_QUERIES,
    k_fractions: Sequence[float] = (0.25, 0.5, 1.0, 1.5, 2.0),
    seed: RandomState = None,
    miss_rate: float = STUDENT_MISS_RATE,
) -> PRSweepResult:
    """Sweep the result-set size for QD and MV.

    Sessions run once per query at the largest k; smaller result sets
    are prefixes of the same ranking, as a user paging through results
    experiences them.
    """
    database = engine.database
    rng = ensure_rng(seed)
    fractions = sorted(set(float(f) for f in k_fractions))
    if not fractions or fractions[0] <= 0:
        raise EvaluationError("k_fractions must be positive")
    acc: Dict[Tuple[str, float], List[Tuple[float, float]]] = {}
    for query in queries:
        trial_seed = int(derive_rng(rng, query.name).integers(2**31))
        gt = default_k(database, query)
        relevant = {
            int(i)
            for i in database.ids_of_categories(
                sorted(query.relevant_categories())
            )
        }
        k_max = max(1, int(round(fractions[-1] * gt)))
        result, _ = run_qd_session(
            engine, query, k=k_max, seed=trial_seed, miss_rate=miss_rate
        )
        qd_ranked = result.flatten(k_max)
        mv = MultipleViewpoints(database, seed=trial_seed)
        run_baseline_session(
            mv, query, k=k_max, rounds=2, seed=trial_seed,
            miss_rate=miss_rate,
        )
        mv_ranked = mv.retrieve(k_max).ids()
        for technique, ranked in (("QD", qd_ranked), ("MV", mv_ranked)):
            for fraction in fractions:
                k = max(1, int(round(fraction * gt)))
                head = ranked[:k]
                hits = sum(1 for i in head if i in relevant)
                acc.setdefault((technique, fraction), []).append(
                    (hits / max(1, len(head)), hits / len(relevant))
                )
    points = []
    for technique in ("MV", "QD"):
        for fraction in fractions:
            samples = acc[(technique, fraction)]
            points.append(
                PRPoint(
                    technique=technique,
                    k_fraction=fraction,
                    precision=float(np.mean([p for p, _ in samples])),
                    recall=float(np.mean([r for _, r in samples])),
                )
            )
    return PRSweepResult(points=points)


def _trimmed_mean(values: Sequence[float], trim: float = 0.1) -> float:
    """Mean after dropping the top/bottom ``trim`` fraction of samples.

    Occasional boundary expansions give the per-query cost a heavy right
    tail; trimming yields the stable central trend the paper's figures
    plot.
    """
    if not values:
        return 0.0
    arr = np.sort(np.asarray(values, dtype=np.float64))
    cut = int(len(arr) * trim)
    core = arr[cut : len(arr) - cut] if len(arr) > 2 * cut else arr
    return float(core.mean())


def _p95(values: Sequence[float]) -> float:
    """95th percentile of the samples (0.0 when there are none)."""
    return float(np.percentile(values, 95)) if values else 0.0


def run_scalability(
    db_sizes: Sequence[int] = (2_000, 4_000, 8_000, 12_000, 15_000),
    *,
    n_queries: int = 100,
    rounds: int = 3,
    seed: int = 2006,
    rfs_config: Optional[RFSConfig] = None,
    qd_config: Optional[QDConfig] = None,
) -> ScalabilityResult:
    """Reproduce Figures 10/11: timing sweeps over database sizes.

    Uses the feature-space dataset backend (the timing behaviour depends
    only on the feature geometry, not the rendering pipeline) and
    randomly generated initial queries, as §5.2.2 describes.
    """
    cfg = qd_config or QDConfig()
    points: List[ScalabilityPoint] = []
    for size in db_sizes:
        database = build_synthetic_database(size, seed=seed)
        engine = QueryDecompositionEngine.build(
            database, rfs_config, cfg, seed=seed
        )
        rng = ensure_rng(seed + size)
        feedback_reads: List[float] = []
        localized_reads: List[float] = []
        # Per-query seconds: whole session, each feedback iteration,
        # final localized k-NN.
        overall_s: List[float] = []
        iteration_s: List[float] = []
        final_knn_s: List[float] = []
        target_rng = derive_rng(rng, "targets")
        outer_tracer = get_tracer()
        for q in range(n_queries):
            # A random initial query: the user is after 1–3 random
            # categories.
            n_targets = int(target_rng.integers(1, 4))
            target_labels = target_rng.choice(
                len(database.category_names), size=n_targets, replace=False
            )
            targets = {
                database.category_names[int(t)] for t in target_labels
            }

            def mark(shown: Sequence[int]) -> List[int]:
                return [
                    int(i)
                    for i in shown
                    if database.category_of(int(i)) in targets
                ]

            # Phase timings are read from the session trace (one tracer
            # per session, so sessions never share spans).
            tracer = Tracer()
            # The paper retrieves as many images as the ground truth
            # holds; ground-truth size scales with the database, so the
            # result size does too.
            k_result = max(10, size // 300)
            try:
                with use_tracer(tracer):
                    result = engine.run_scripted(
                        mark,
                        k=k_result,
                        rounds=rounds,
                        screens_per_round=3,
                        seed=int(target_rng.integers(2**31)),
                    )
            except Exception:
                # A query whose targets never surfaced in the displays
                # has no marks; skip it (the paper's random queries are
                # implicitly answerable).
                continue
            if outer_tracer.enabled:
                # Surface the session spans to an enclosing tracer (e.g.
                # the CLI's --trace) instead of discarding them.
                outer_tracer.spans.extend(tracer.spans)
            phases = phase_durations(tracer)
            overall_s.append(sum(
                sum(phases.get(p, ())) for p in
                ("initial", "iteration", "final_knn")
            ))
            iteration_s.extend(phases.get("iteration", ()))
            final_knn_s.append(sum(phases.get("final_knn", ())))
            feedback_reads.append(
                result.stats.get("disk_reads_feedback", 0.0)
            )
            localized_reads.append(
                result.stats.get("disk_reads_localized_knn", 0.0)
            )

        # Cost of one traditional global k-NN feedback round at this
        # size: a full-database scan query (what QPM/MARS/MV pay every
        # round).
        global_s: List[float] = []
        probe_rng = derive_rng(rng, "probe")
        for _ in range(min(n_queries, 40)):
            probe = database.features[
                int(probe_rng.integers(database.size))
            ]
            t0 = time.perf_counter()
            dists = np.linalg.norm(database.features - probe, axis=1)
            np.argsort(dists, kind="stable")[:50]
            global_s.append(time.perf_counter() - t0)

        points.append(
            ScalabilityPoint(
                db_size=size,
                overall_query_time=_trimmed_mean(overall_s),
                iteration_time=_trimmed_mean(iteration_s),
                final_knn_time=_trimmed_mean(final_knn_s),
                global_knn_round_time=_trimmed_mean(global_s),
                feedback_page_reads=(
                    float(np.mean(feedback_reads)) if feedback_reads else 0.0
                ),
                localized_knn_page_reads=(
                    float(np.mean(localized_reads))
                    if localized_reads
                    else 0.0
                ),
                overall_query_time_p95=_p95(overall_s),
                iteration_time_p95=_p95(iteration_s),
            )
        )
    return ScalabilityResult(points=points, n_queries=n_queries)
