"""Shared benchmark environment.

The quality benchmarks (Tables 1–2, Figures 1, 4–9) run at the paper's
scale — 15,000 images, 150 categories — so the confinement effects the
paper reports actually manifest.  The rendered database is cached on disk
after the first build (~30 s) and reloaded on later runs.

Every bench prints the regenerated table/figure rows to stdout (run with
``-s`` to see them live) and appends them to
``benchmarks/results/latest.txt``.
"""

from __future__ import annotations

from pathlib import Path

import pytest

from repro import obs
from repro.config import DatasetConfig
from repro.core.engine import QueryDecompositionEngine
from repro.datasets.build import build_rendered_database
from repro.datasets.database import ImageDatabase

CACHE_DIR = Path(__file__).parent / ".cache"
RESULTS_DIR = Path(__file__).parent / "results"
PAPER_SEED = 2006


def _load_or_build_paper_db() -> ImageDatabase:
    CACHE_DIR.mkdir(exist_ok=True)
    cache = CACHE_DIR / f"paper_db_{PAPER_SEED}.npz"
    if cache.exists():
        return ImageDatabase.load(cache)
    database = build_rendered_database(
        DatasetConfig(seed=PAPER_SEED)  # 15,000 images / 150 categories
    )
    database.save(cache)
    return database


@pytest.fixture(scope="session")
def paper_db() -> ImageDatabase:
    """The paper-scale rendered database (15k images, 150 categories)."""
    return _load_or_build_paper_db()


@pytest.fixture(scope="session")
def paper_engine(paper_db) -> QueryDecompositionEngine:
    """QD engine with the paper's RFS configuration (100 entries per node)."""
    return QueryDecompositionEngine.build(paper_db, seed=PAPER_SEED)


#: Database sizes of the Figure 10/11 sweeps (the paper sweeps up to its
#: 15,000-image database).  ``QD_SCALABILITY_MAX`` extends the ladder
#: past the paper's scale — e.g. ``QD_SCALABILITY_MAX=100000`` adds the
#: 30k/60k/100k points (the Gaussian-mixture backend builds them
#: directly in feature space, so even 1M-item sweeps stay tractable).
#: The weekly bench-full CI job sets it; default runs stay paper-sized.
_EXTENDED_SIZES = (30_000, 60_000, 100_000, 250_000, 500_000, 1_000_000)


def _scalability_sizes() -> tuple:
    import os

    base = (2_000, 4_000, 8_000, 12_000, 15_000)
    cap = int(os.environ.get("QD_SCALABILITY_MAX", "0") or "0")
    if cap <= base[-1]:
        return base
    return base + tuple(s for s in _EXTENDED_SIZES if s <= cap)


SCALABILITY_SIZES = _scalability_sizes()

_SCALABILITY_CACHE = {}


@pytest.fixture(scope="session")
def scalability_result(obs_registry):
    """One shared Figure 10/11 sweep (both figures read the same runs).

    Phase timings (including the p95 columns) come from per-session
    traces — see ``repro.obs.phase_durations``.
    """
    from repro.eval.experiments import run_scalability

    if "result" not in _SCALABILITY_CACHE:
        _SCALABILITY_CACHE["result"] = run_scalability(
            SCALABILITY_SIZES, n_queries=100, seed=PAPER_SEED
        )
    return _SCALABILITY_CACHE["result"]


@pytest.fixture(scope="session")
def obs_registry():
    """A metrics registry installed for the whole benchmark session.

    Every instrumented layer (engine, session, index, retrieval) feeds
    it; the teardown appends a Prometheus dump to
    ``benchmarks/results/metrics.prom`` so a run's counters (distance
    computations, page reads, splits) are inspectable after the fact.
    """
    registry = obs.MetricsRegistry()
    with obs.use_metrics(registry):
        yield registry
    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / "metrics.prom").write_text(
        obs.prometheus_text(registry)
    )


@pytest.fixture(scope="session")
def report():
    """Print a result block and append it to benchmarks/results/latest.txt."""
    RESULTS_DIR.mkdir(exist_ok=True)
    path = RESULTS_DIR / "latest.txt"
    handle = path.open("a")

    def emit(text: str) -> None:
        print("\n" + text)
        handle.write(text + "\n\n")
        handle.flush()

    yield emit
    handle.close()
