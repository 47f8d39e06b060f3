"""Workload table and seeded dialogue plans of the e2e serving benchmark.

A *plan* is everything the load generator sends that does not depend on
the server's answers: for every dialogue its target category, session
seed and result size, and — for the read/write workload — the write
that follows it.  Plans are drawn from ``--seed`` here, in the
benchmark; the server only ever receives the generated requests.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Deque, Dict, List, Optional, Tuple

import numpy as np

#: Database every workload serves (the paper's scale).
N_IMAGES = 15_000
N_CATEGORIES = 150
DB_SEED = 2006
#: ``repro-cbir serve --seed``: the RFS tree build seed.
INDEX_SEED = 7
PARTITION = "roundrobin"

ROUNDS = 3
SCREENS = 4
MARKS_PER_ROUND = 6
#: ``mixed_rw_cached``: the client issues one write after every
#: ``WRITE_EVERY``-th dialogue (dialogues 0, 2, 4, ...).
WRITE_EVERY = 2

ZIPF_EXPONENT = 1.1
INTEREST_POOL = 100
#: The pool of repeated interests belongs to the data set, like the
#: database: ``--seed`` draws the traffic over it, not the pool itself,
#: so two seeds differ in order and mix but not in which few interests
#: carry half the traffic.
POOL_SEED = 2006
GOLDEN_RATIO = 0.6180339887498949
#: Divides the warm-up and the epoch of ``mixed_rw_cached``.
ZIPF_WINDOW = 16
WRITE_CYCLE = ("insert", "insert", "remove_inserted", "remove_original")
INSERT_NOISE = 0.05


@dataclass(frozen=True)
class Workload:
    """One traffic mix: server configuration, plan shape, epoch size."""

    name: str
    why: str
    k: int
    #: Measured epochs of a run and dialogues per epoch.  Both fixed:
    #: every run of a seed, on any commit, replays the same dialogues.
    epochs: int
    epoch_dialogues: int
    #: Unmeasured dialogues replayed first (default: one epoch).
    warmup_dialogues: int = 0
    #: Dialogues the traced run replays after its own warm-up.
    trace_dialogues: int = 60
    #: Interests repeat (Zipf over the pool) instead of being distinct.
    zipf: bool = False
    session_store: str = "memory"
    shards: int = 0
    cache: bool = False
    #: ``--mutations --compact-threshold N``; 0 serves read-only, and
    #: only a mutating workload has a write schedule.
    compact_threshold: int = 0

    def __post_init__(self) -> None:
        if not self.warmup_dialogues:
            object.__setattr__(
                self, "warmup_dialogues", self.epoch_dialogues
            )

    @property
    def writes(self) -> bool:
        return self.compact_threshold > 0

    @property
    def server_flags(self) -> Tuple[str, ...]:
        """``serve`` flags beyond ``--db --port --seed --store`` (and
        ``--session-path``, which needs the run's temp directory)."""
        flags = ["--session-store", self.session_store]
        if self.shards:
            flags += ["--shards", str(self.shards), "--partition", PARTITION]
        if self.cache:
            flags.append("--cache")
        if self.writes:
            flags += [
                "--mutations", "--compact-threshold",
                str(self.compact_threshold),
            ]
        return tuple(flags)


def compaction_schedule(threshold: int, n_writes: int) -> List[int]:
    """1-based numbers of the writes that trigger an inline compaction.

    Simulates the server's rule on :data:`WRITE_CYCLE`: it compacts
    when ``delta rows + main tombstones`` reaches the threshold.  An
    insert adds a delta row; removing an original, or an insert that an
    earlier compaction already folded into the main store, adds a
    tombstone; removing an insert of the current generation adds
    nothing.  Only the first generation sees that last case (the
    remove-inserted backlog grows by one per cycle), so after the first
    compaction every write counts and one falls every ``threshold``
    writes.
    """
    size = generation = 0
    inserted_in: Deque[int] = deque()
    triggers: List[int] = []
    for n in range(1, n_writes + 1):
        kind = WRITE_CYCLE[(n - 1) % len(WRITE_CYCLE)]
        if kind == "insert":
            inserted_in.append(generation)
            size += 1
        elif kind == "remove_original":
            size += 1
        elif inserted_in.popleft() != generation:
            size += 1
        if size >= threshold:
            triggers.append(n)
            size = 0
            generation += 1
    return triggers


#: Sizes.  ISSUE.md asks for 7 x 360 / 7 x 120 / 7 x 120 / 5 x 256
#: dialogues (25-65 s of measurement per workload); the driver makes 92
#: runs in 3420 s, which leaves a run about 30 s, set-up, warm-up and
#: verification included.  Read-only epochs are 50 dialogues (150
#: feedback rounds, so p90 of them keeps 15 samples beyond it) and
#: there are many of them: a run reports the median over the epochs the
#: hypervisor disturbed least (``stats.calm_epochs``), which needs
#: epochs short enough for some to fall between two disturbances.
#: Three epochs are one shuffled round of the 150 categories.
#:
#: ``mixed_rw_cached`` compacts at 48 (ISSUE.md: 128), so that an epoch
#: holding exactly one compaction is 96 dialogues.  Not lower: a
#: compaction flushes the result cache, and with fewer than ~100
#: dialogues between flushes the hit share sits at one half, where
#: ``finalize_p50_ms`` flips between the hit and the miss mode from run
#: to run.
MIXED_COMPACT_THRESHOLD = 48
READ_EPOCH = N_CATEGORIES // 3
_FIRST_COMPACTION = compaction_schedule(MIXED_COMPACT_THRESHOLD, 1000)[0]

WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            name="dialogue_sqlite",
            why=(
                "eight small ops per dialogue on a SQLite session store: "
                "wire codec, admission queue and checkpoint/resume "
                "dominate, the scan is tiny (k=60)"
            ),
            k=60,
            epochs=24,
            epoch_dialogues=READ_EPOCH,
            session_store="sqlite",
        ),
        Workload(
            name="scan_wide",
            why=(
                "k=1200 finalize visits ~150 leaves and returns a 33 KB "
                "response: tree scan, kernels, merge and response "
                "encoding dominate, session storage is in memory"
            ),
            k=1200,
            epochs=12,
            epoch_dialogues=READ_EPOCH,
        ),
        Workload(
            name="scan_wide_2shard",
            why=(
                "the scan_wide dialogues through the 2-shard "
                "scatter-gather router, so fan-out cost reads off "
                "directly against scan_wide"
            ),
            k=1200,
            epochs=12,
            epoch_dialogues=READ_EPOCH,
            shards=2,
        ),
        Workload(
            name="mixed_rw_cached",
            why=(
                "Zipf-repeated interests hit the result cache between "
                "inserts and removes; every epoch holds exactly one "
                "inline compaction"
            ),
            k=1200,
            epochs=4,
            # A write follows every other dialogue.  The warm-up ends
            # half an epoch before the first compaction, so every
            # compaction falls mid-epoch.
            epoch_dialogues=WRITE_EVERY * MIXED_COMPACT_THRESHOLD,
            warmup_dialogues=WRITE_EVERY * _FIRST_COMPACTION
            - MIXED_COMPACT_THRESHOLD,
            # far enough to see the first compaction
            trace_dialogues=WRITE_EVERY * _FIRST_COMPACTION + 2,
            zipf=True,
            cache=True,
            compact_threshold=MIXED_COMPACT_THRESHOLD,
        ),
    )
}


@dataclass(frozen=True)
class Write:
    """One planned write; ids of removes are resolved at replay time."""

    kind: str  # one of WRITE_CYCLE
    #: Feature row to insert (``insert`` only).
    vector: Optional[Tuple[float, ...]] = None
    #: Original image id to remove (``remove_original`` only).
    image_id: Optional[int] = None


@dataclass(frozen=True)
class Dialogue:
    index: int
    category: int
    session_seed: int
    k: int
    #: Issued after this dialogue (every ``WRITE_EVERY``-th one).
    write: Optional[Write] = None


def zipf_weights(n: int, exponent: float = ZIPF_EXPONENT) -> np.ndarray:
    ranks = np.arange(1, n + 1, dtype=np.float64)
    weights = ranks ** -exponent
    return weights / weights.sum()


def build_plan(
    workload: Workload,
    seed: int,
    n_dialogues: int,
    features: Optional[np.ndarray] = None,
) -> List[Dialogue]:
    """The first ``n_dialogues`` dialogues of ``(workload, seed)``.

    Interests depend only on ``seed`` and on whether the workload draws
    them distinct or Zipf-repeated, so ``scan_wide`` and
    ``scan_wide_2shard`` replay the very same interests, and a longer
    plan extends a shorter one.  ``features`` (the database's feature
    matrix) is needed only by the write schedule.
    """
    rng = np.random.default_rng([int(seed), 1 if workload.zipf else 0])
    if workload.zipf:
        pool = np.random.default_rng(POOL_SEED).integers(
            1, 2**31 - 1, size=(INTEREST_POOL, 2)
        )
        # Quota sampling: a golden-ratio sequence through the inverse
        # Zipf CDF gives every stretch of dialogues the distribution's
        # own proportions (independent draws would let the few head
        # interests, each with its own fixed cost, swing an epoch's
        # percentiles); shuffling inside short windows keeps the order
        # from being the sequence's own.
        padded = -(-n_dialogues // ZIPF_WINDOW) * ZIPF_WINDOW
        u = (rng.random() + np.arange(padded) * GOLDEN_RATIO) % 1.0
        cdf = np.cumsum(zipf_weights(INTEREST_POOL))
        picks = np.minimum(np.searchsorted(cdf, u), INTEREST_POOL - 1)
        for start in range(0, padded, ZIPF_WINDOW):
            rng.shuffle(picks[start : start + ZIPF_WINDOW])
        picks = picks[:n_dialogues]
        categories = pool[picks, 0] % N_CATEGORIES
        seeds = pool[picks, 1]
    else:
        # Categories come in shuffled rounds of all of them: what a
        # finalize costs depends mostly on its category, so every
        # round (three epochs) has the same mix whatever the seed.
        rounds = -(-n_dialogues // N_CATEGORIES)
        categories = np.concatenate(
            [rng.permutation(N_CATEGORIES) for _ in range(rounds)]
        )[:n_dialogues]
        seeds = np.random.default_rng([int(seed), 3]).integers(
            1, 2**31 - 1, size=n_dialogues
        )
    writes: Dict[int, Write] = {}
    if workload.writes:
        if features is None:
            raise ValueError("a write schedule needs the feature matrix")
        wrng = np.random.default_rng([int(seed), 2])
        n_rows, dims = features.shape
        removable = wrng.permutation(n_rows)
        for n, index in enumerate(range(0, n_dialogues, WRITE_EVERY)):
            kind = WRITE_CYCLE[n % len(WRITE_CYCLE)]
            if kind == "insert":
                base = features[int(wrng.integers(0, n_rows))]
                row = base + wrng.normal(0.0, INSERT_NOISE, size=dims)
                writes[index] = Write(kind, vector=tuple(map(float, row)))
            elif kind == "remove_original":
                writes[index] = Write(
                    kind, image_id=int(removable[n // len(WRITE_CYCLE)])
                )
            else:
                writes[index] = Write(kind)
    return [
        Dialogue(
            index=i,
            category=int(categories[i]),
            session_seed=int(seeds[i]),
            k=workload.k,
            write=writes.get(i),
        )
        for i in range(n_dialogues)
    ]
