"""Output verification, run after the timed epochs (never during).

Read-only workloads: a reference engine is rebuilt in the benchmark
process and every kept dialogue is replayed through a plain
``FeedbackSession``; the TCP responses must carry the same groups in
the same order with identical item ids and scores — single-node and
sharded alike (the repo's bit-identical contract).

``mixed_rw_cached`` has no static reference (results depend on how
reads and writes interleave), so it is checked against invariants.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Sequence, Set, Tuple

import numpy as np

from loadgen import DialogueRecord, WriteRecord, choose_marks
from workloads import (
    INDEX_SEED,
    ROUNDS,
    SCREENS,
    Dialogue,
    compaction_schedule,
)


def build_reference_engine(database: Any) -> Any:
    from repro.core.engine import QueryDecompositionEngine

    return QueryDecompositionEngine.build(
        database, seed=INDEX_SEED, store="inmem"
    )


def reference_value(
    engine: Any, dialogue: Dialogue, labels: np.ndarray
) -> Optional[Dict[str, Any]]:
    """The finalize response a correct server sends (None: abandoned)."""
    from repro.core.session import FeedbackSession

    session = FeedbackSession(
        engine.rfs, engine.config, seed=dialogue.session_seed
    )
    marked_any = False
    for _ in range(ROUNDS):
        shown = session.display(screens=SCREENS)
        marks = choose_marks(shown, labels, dialogue.category)
        marked_any = marked_any or bool(marks)
        session.submit(marks)
    if not marked_any:
        return None
    result = session.finalize(dialogue.k)
    return {
        "rounds_used": result.rounds_used,
        "groups": [
            {
                "leaf_node_id": group.leaf_node_id,
                "search_node_id": group.search_node_id,
                "items": [[item.item_id, item.score] for item in group.items],
            }
            for group in result.groups
        ],
    }


def verify_against_reference(
    database: Any,
    plan: Sequence[Dialogue],
    records: Sequence[DialogueRecord],
) -> List[str]:
    """Mismatches between kept TCP responses and the reference replay."""
    kept = [r for r in records if r.value is not None]
    if not kept:
        return ["no finalize response was kept for verification"]
    engine = build_reference_engine(database)
    problems: List[str] = []
    try:
        for record in kept:
            expected = reference_value(
                engine, plan[record.index], database.labels
            )
            if expected != record.value:
                problems.append(
                    f"dialogue {record.index}: TCP ranking differs from "
                    "the in-process reference"
                )
    finally:
        engine.close()
    return problems


def slowest_writes(writes: Sequence[WriteRecord], n: int) -> List[int]:
    """1-based numbers of the ``n`` writes with the longest round trip."""
    order = sorted(range(1, len(writes) + 1), key=lambda i: writes[i - 1].seconds)
    return sorted(order[len(order) - n:])


def verify_mixed_invariants(
    records: Sequence[DialogueRecord],
    writes: Sequence[WriteRecord],
    *,
    n_images: int,
    k: int,
    compact_threshold: int,
) -> Tuple[List[str], int]:
    """Invariant breaches of a read/write run and the compactions
    confirmed in it.

    ``writes`` is the whole write history since the server started, in
    order.  The plan sizes epochs by :func:`compaction_schedule`, a
    simulation of the server's rule, and the server does not say when
    it compacts; but a write that ran an inline compaction re-bulk-
    loads the tree and takes hundreds of times a plain one (~1 s
    against ~2 ms).  So the writes that took longest must be exactly
    the simulated ones: a server whose rule has moved on fails here
    rather than being measured with some other number of compactions
    per epoch.

    Reads and writes come from one client, one after the other, so no
    id whose remove was acknowledged may appear in any finalize sent
    after that acknowledgement.
    """
    problems: List[str] = []
    failed_ops = sum(r.failed for r in records)
    if failed_ops:
        problems.append(f"{failed_ops} dialogue op(s) were not ok")
    bad_writes = [w for w in writes if w.status != "ok"]
    if bad_writes:
        problems.append(f"{len(bad_writes)} write(s) were not ok")
    inserted = [w.image_id for w in writes if w.kind == "insert"]
    if inserted != list(range(n_images, n_images + len(inserted))):
        problems.append(
            f"inserted ids are not consecutive from {n_images}: "
            f"{inserted[:8]}..."
        )
    compactions = compaction_schedule(compact_threshold, len(writes))
    slowest = slowest_writes(writes, len(compactions))
    if slowest != compactions:
        problems.append(
            f"the {len(compactions)} slowest writes are {slowest}; the "
            "plan's simulation of the server's rule has compactions at "
            f"{compactions}"
        )
    removals = sorted(
        (w.acked, w.image_id)
        for w in writes
        if w.kind != "insert" and w.status == "ok"
    )
    finalized = sorted(
        (r for r in records if r.result_ids is not None),
        key=lambda r: r.finalize_sent,
    )
    removed: Set[int] = set()
    cursor = 0
    for record in finalized:
        while (
            cursor < len(removals)
            and removals[cursor][0] <= record.finalize_sent
        ):
            removed.add(removals[cursor][1])
            cursor += 1
        assert record.result_ids is not None
        if len(record.result_ids) > k:
            problems.append(
                f"dialogue {record.index}: {len(record.result_ids)} "
                f"items for k={k}"
            )
        ghosts = sorted(i for i in record.result_ids if i in removed)
        if ghosts:
            problems.append(
                f"dialogue {record.index}: removed id(s) {ghosts[:4]} "
                "returned after their remove was acknowledged"
            )
    return problems, len(compactions)
