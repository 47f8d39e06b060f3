"""Perf — session traffic simulator over externalized session state.

Extends ``bench_cache_throughput``'s Zipfian stream into a full traffic
model for the externalized-session serving path (ROADMAP item 2): a
Poisson arrival process opens feedback dialogues against a pool of
Zipf-ranked query interests; each dialogue browses, thinks (virtual
time), marks, and either finalizes or abandons mid-dialogue; every
request is routed to a different front-end worker
(:class:`repro.core.SessionFrontEnd`).  The traffic runs twice:

* **handoff** — each worker has its *own* engine over the shared tree
  and store (what separate worker processes are), so *every* round is
  a real handoff served by rebuilding the session from the shared
  :class:`repro.sessionstore.SessionStore` record;
* **sticky** — all workers share one engine (the threads of one
  ``QDServer``), so after ``open`` every round finds the engine's hot
  copy, proves it current against the record's bytes and skips the
  rebuild.

The difference between the two rows is what the decode/restore of a
handoff costs; what the sticky row still pays over the baseline is the
encode + store write of the checkpoint itself.

Measured, per row:

* **sessions/sec** — completed dialogues per second of server compute
  (virtual think time excluded), store-backed with per-round
  checkpoints,
* **checkpoint overhead** — store-backed wall time over the identical
  workload driven through plain in-memory sessions (no store, no
  handoff),
* **p95 checkpoint latency** — per-``put`` store latency (handoff row),
* **handoff parity** — fraction of completed dialogues whose final
  rankings are bit-identical to the never-suspended baseline (must be
  1.0 on both rows: neither resuming nor skipping the resume is
  allowed to change results),
* **TTL sweep** — abandoned dialogues must be exactly the ones removed
  by the end-of-run expiry sweep.

Runs two ways:

* ``pytest benchmarks/bench_session_traffic.py`` — report/benchmark
  fixtures, rows appended to ``benchmarks/results/latest.txt``.
* ``python benchmarks/bench_session_traffic.py [--tiny]`` —
  fixture-free script entry for CI smoke (same rows, same results
  file), emitting the canonical ``BENCH_session_traffic.json``.

``QD_BENCH_TINY=1`` (or ``--tiny``) shrinks the workload for CI.
"""

from __future__ import annotations

import heapq
import os
import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from _harness import TINY_ENV, BenchResult, emit, tiny_arg_parser
from repro.core import QueryDecompositionEngine, SessionFrontEnd
from repro.core.session import FeedbackSession
from repro.errors import SessionStateError
from repro.datasets.build import build_synthetic_database
from repro.sessionstore import SQLiteSessionStore, SessionStore

TINY = os.environ.get("QD_BENCH_TINY") == "1"
SEED = 2006
ZIPF_EXPONENT = 1.1
MARKS_PER_ROUND = 6


def _params(tiny: bool) -> dict:
    """Traffic shape: arrivals, think time, abandonment, worker pool."""
    if tiny:
        return dict(
            n_images=2_000, n_categories=30, pool=10, sessions=24,
            rounds=3, k=40, workers=3, screens=4,
            arrival_rate=50.0, think_s=2.0, abandon=0.15,
            # Tiny sessions do ~0.5 ms of compute, so store I/O
            # dominates; the smoke gate is correctness + a sanity bound.
            repeats=2, max_overhead=12.0,
        )
    return dict(
        n_images=15_000, n_categories=150, pool=40, sessions=150,
        rounds=3, k=60, workers=4, screens=4,
        arrival_rate=50.0, think_s=2.0, abandon=0.15,
        # Sanity ceiling only (observed 3.5-5x on a loaded 1-cpu box) —
        # drift is caught by bench-regress against the committed
        # baseline, not by this bound.
        repeats=2, max_overhead=10.0,
    )


@dataclass
class SessionPlan:
    """One pre-drawn dialogue: interest, seed, and (maybe) an abandon."""

    sid: str
    category: int
    seed: int
    arrival_t: float
    think: Tuple[float, ...]
    #: Round after which the user silently walks away (None = completes).
    abandon_after: Optional[int]


class _TimedStore:
    """Store wrapper that records per-checkpoint ``put`` latency."""

    def __init__(self, inner: SessionStore) -> None:
        self._inner = inner
        self.put_seconds: List[float] = []

    def put(self, state, **kwargs):
        start = time.perf_counter()
        payload = self._inner.put(state, **kwargs)
        self.put_seconds.append(time.perf_counter() - start)
        return payload

    def __getattr__(self, name: str):
        return getattr(self._inner, name)


def _make_plans(p: dict, labels: np.ndarray) -> List[SessionPlan]:
    """Pre-draw every stochastic choice so both phases replay exactly."""
    rng = np.random.default_rng(SEED)
    categories = rng.choice(p["n_categories"], size=p["pool"], replace=False)
    ranks = np.arange(1, p["pool"] + 1, dtype=np.float64)
    probs = ranks ** -ZIPF_EXPONENT
    probs /= probs.sum()
    plans: List[SessionPlan] = []
    t = 0.0
    for i in range(p["sessions"]):
        t += float(rng.exponential(1.0 / p["arrival_rate"]))
        abandon_after = None
        for rnd in range(1, p["rounds"]):
            if rng.random() < p["abandon"]:
                abandon_after = rnd
                break
        plans.append(
            SessionPlan(
                sid=f"s{i:05d}",
                category=int(categories[rng.choice(p["pool"], p=probs)]),
                seed=int(rng.integers(2**31 - 1)),
                arrival_t=t,
                think=tuple(
                    float(v)
                    for v in rng.exponential(
                        p["think_s"], size=2 * p["rounds"] + 2
                    )
                ),
                abandon_after=abandon_after,
            )
        )
    return plans


def _mark_fn(labels: np.ndarray, category: int):
    def mark(shown):
        return [i for i in shown if labels[i] == category][:MARKS_PER_ROUND]

    return mark


def _signature(result):
    return [
        (
            group.leaf_node_id,
            tuple((item.item_id, item.score) for item in group.items),
        )
        for group in result.groups
    ]


def _run_baseline(engine, plans, p, labels) -> Tuple[float, Dict[str, list]]:
    """The identical workload through plain in-memory sessions."""
    signatures: Dict[str, list] = {}
    start = time.perf_counter()
    for plan in plans:
        session = FeedbackSession(
            engine.rfs, engine.config, seed=plan.seed, session_id=plan.sid,
        )
        mark = _mark_fn(labels, plan.category)
        rounds = plan.abandon_after or p["rounds"]
        for _ in range(rounds):
            session.submit(mark(session.display(screens=p["screens"])))
        # A dialogue whose category never surfaced has nothing marked;
        # finalize would (correctly) refuse, so it ends fruitless.
        if plan.abandon_after is None and session.marked_ids:
            signatures[plan.sid] = _signature(session.finalize(p["k"]))
    return time.perf_counter() - start, signatures


def _run_traffic(
    engines, plans, p, labels
) -> Tuple[float, Dict[str, list], int]:
    """Event-driven replay: virtual clock, per-op worker rotation.

    Worker ``i`` serves through ``engines[i % len(engines)]``: one
    engine per worker makes every rotation a real handoff, a single
    shared engine makes the workers one process' threads.  Virtual
    time orders the interleaving (so concurrent dialogues genuinely
    interleave on the store); only server compute counts toward the
    measured wall time.  Returns (compute seconds, signatures,
    handoffs) — a handoff being any op served by a different worker
    than the session's previous one.
    """
    workers = [
        SessionFrontEnd(engines[i % len(engines)], worker_id=f"w{i}")
        for i in range(p["workers"])
    ]
    # (virtual_t, seq, plan, step). Steps: 0=open, then per round
    # display/submit pairs, finally finalize or abandon.
    events: List[Tuple[float, int, SessionPlan, int]] = []
    for seq, plan in enumerate(plans):
        heapq.heappush(events, (plan.arrival_t, seq, plan, 0))
    seq = len(plans)
    screens: Dict[str, List[int]] = {}
    last_worker: Dict[str, int] = {}
    signatures: Dict[str, list] = {}
    handoffs = 0
    compute_s = 0.0
    while events:
        t, _, plan, step = heapq.heappop(events)
        rounds = plan.abandon_after or p["rounds"]
        last_step = 1 + 2 * rounds  # step index of finalize/abandon
        worker_idx = (step * 7919 + int(plan.seed)) % p["workers"]
        worker = workers[worker_idx]
        previous = last_worker.get(plan.sid)
        if previous is not None and previous != worker_idx:
            handoffs += 1
        last_worker[plan.sid] = worker_idx
        start = time.perf_counter()
        if step == 0:
            worker.open(seed=plan.seed, session_id=plan.sid)
        elif step == last_step:
            if plan.abandon_after is not None:
                pass  # the user walks away; TTL sweep reaps the record
            else:
                try:
                    signatures[plan.sid] = _signature(
                        worker.finalize(plan.sid, p["k"])
                    )
                except SessionStateError:
                    # Fruitless dialogue (nothing ever marked): the
                    # user closes it, dropping the record — mirrors the
                    # baseline's skip, so parity sets stay identical.
                    worker.abandon(plan.sid)
        elif step % 2 == 1:
            screens[plan.sid] = worker.display(
                plan.sid, screens=p["screens"]
            )
        else:
            mark = _mark_fn(labels, plan.category)
            worker.submit(plan.sid, mark(screens[plan.sid]))
        compute_s += time.perf_counter() - start
        if step < last_step:
            think = plan.think[step % len(plan.think)]
            heapq.heappush(events, (t + think, seq, plan, step + 1))
            seq += 1
    return compute_s, signatures, handoffs


def run_traffic_bench(tiny: bool, db_path: Optional[str] = None) -> tuple:
    """Run every measurement; returns (report rows, metrics dict)."""
    import tempfile

    p = _params(tiny)
    database = build_synthetic_database(
        p["n_images"], n_categories=p["n_categories"], seed=SEED
    )
    labels = database.labels
    plans = _make_plans(p, labels)
    n_completed = sum(1 for plan in plans if plan.abandon_after is None)
    n_abandoned = len(plans) - n_completed

    with QueryDecompositionEngine.build(database, seed=SEED) as engine:
        # Baseline: plain in-memory sessions, no store, no handoff.
        baseline_s = float("inf")
        baseline_sigs: Dict[str, list] = {}
        for _ in range(p["repeats"]):
            elapsed, baseline_sigs = _run_baseline(
                engine, plans, p, labels
            )
            baseline_s = min(baseline_s, elapsed)

        # Traffic: SQLite store (the durable multi-worker backend),
        # per-round checkpoints, every op on a rotating worker.
        workdir = db_path or tempfile.mkdtemp(prefix="qd-bench-sessions-")
        store = _TimedStore(
            SQLiteSessionStore(os.path.join(workdir, "sessions.db"))
        )
        engine.attach_session_store(store)
        # One engine per worker over the shared tree and store: the
        # in-process stand-in for separate worker processes.
        own_engines = [
            QueryDecompositionEngine(database, engine.rfs, engine.config)
            for _ in range(p["workers"])
        ]
        for own in own_engines:
            own.attach_session_store(store)

        def measure(engines) -> Tuple[float, Dict[str, list], int]:
            best = (float("inf"), {}, 0)
            for _ in range(p["repeats"]):
                store.sweep_expired(1.0, now=time.time() + 1e6)  # reset
                run = _run_traffic(engines, plans, p, labels)
                if run[0] < best[0]:
                    best = run
            return best

        traffic_s, traffic_sigs, handoffs = measure(own_engines)
        handoff_puts = list(store.put_seconds)
        sticky_s, sticky_sigs, _ = measure([engine])

        # Abandoned dialogues linger until the TTL sweep reaps them.
        leftover = store.list_ids()
        swept = store.sweep_expired(1e-9)
        store.close()
        for own in own_engines:
            own.close()
        engine.detach_session_store()

    # Fruitless dialogues (nothing marked → no finalize) are excluded
    # from both signature sets identically, so parity stays honest.
    n_finalized = len(baseline_sigs)

    def parity_of(sigs: Dict[str, list]) -> float:
        matched = sum(
            1 for sid, sig in baseline_sigs.items() if sigs.get(sid) == sig
        )
        return matched / max(1, n_finalized)

    parity = parity_of(traffic_sigs)
    sticky_parity = parity_of(sticky_sigs)
    overhead = traffic_s / baseline_s
    sticky_overhead = sticky_s / baseline_s
    sessions_per_s = n_finalized / traffic_s
    checkpoint_p95_ms = (
        float(np.percentile(handoff_puts, 95)) * 1000.0
        if handoff_puts
        else 0.0
    )

    scale = "tiny" if tiny else "full"
    rows = [
        f"Session traffic: {len(plans)} dialogues ({n_finalized} "
        f"finalized, {n_completed - n_finalized} fruitless, "
        f"{n_abandoned} abandoned), {p['rounds']} rounds, "
        f"{p['workers']} workers, {p['n_images']} images ({scale})",
        f"  in-memory baseline   {baseline_s * 1000:8.1f} ms   "
        f"{n_finalized / baseline_s:7.1f} sessions/s",
        f"  sqlite store+handoff {traffic_s * 1000:8.1f} ms   "
        f"{sessions_per_s:7.1f} sessions/s   "
        f"{overhead:.2f}x overhead   (one engine per worker)",
        f"  sqlite store, sticky {sticky_s * 1000:8.1f} ms   "
        f"{n_finalized / sticky_s:7.1f} sessions/s   "
        f"{sticky_overhead:.2f}x overhead   (one engine, hot copies)",
        f"  handoffs {handoffs}, parity {parity:.0%} / sticky "
        f"{sticky_parity:.0%}, checkpoint p95 "
        f"{checkpoint_p95_ms:.2f} ms, swept {len(swept)} abandoned",
    ]
    metrics = {
        "sessions_per_s": sessions_per_s,
        "baseline_sessions_per_s": n_completed / baseline_s,
        "checkpoint_overhead": overhead,
        "checkpoint_p95_ms": checkpoint_p95_ms,
        "handoff_parity": parity,
        "sticky_sessions_per_s": n_finalized / sticky_s,
        "sticky_checkpoint_overhead": sticky_overhead,
        "sticky_parity": sticky_parity,
        "handoffs": float(handoffs),
        "swept": float(len(swept)),
        "leftover": float(len(leftover)),
        "n_abandoned": float(n_abandoned),
        "max_overhead": p["max_overhead"],
    }
    return rows, metrics


def _bench_result(tiny: bool, metrics: dict) -> BenchResult:
    """The canonical ``BENCH_session_traffic.json`` record."""
    p = _params(tiny)
    result = BenchResult.new("session_traffic", {**p, "tiny": tiny})
    result.record(
        "handoff_parity", metrics["handoff_parity"], unit="ratio",
        higher_is_better=True, min_abs=0.0,
    )
    result.record(
        "sticky_parity", metrics["sticky_parity"], unit="ratio",
        higher_is_better=True, min_abs=0.0,
    )
    for prefix in ("", "sticky_"):
        result.record(
            f"{prefix}checkpoint_overhead",
            metrics[f"{prefix}checkpoint_overhead"], unit="x",
            higher_is_better=False, min_abs=0.6,
        )
        result.record(
            f"{prefix}sessions_per_s", metrics[f"{prefix}sessions_per_s"],
            unit="1/s", higher_is_better=True, compare=False,
        )
    result.record(
        "checkpoint_p95_ms", metrics["checkpoint_p95_ms"], unit="ms",
        higher_is_better=False, compare=False,
    )
    for name in ("handoffs", "swept", "n_abandoned"):
        result.record(name, metrics[name], unit="", compare=False)
    return result


def _check(metrics: dict) -> None:
    # Neither resuming under handoff nor skipping the resume on a hot
    # copy may ever change a ranking.
    assert metrics["handoff_parity"] == 1.0
    assert metrics["sticky_parity"] == 1.0
    # Checkpointing every round costs real I/O but must stay bounded.
    assert metrics["checkpoint_overhead"] <= metrics["max_overhead"]
    assert metrics["sticky_checkpoint_overhead"] <= metrics["max_overhead"]
    # Exactly the abandoned dialogues survive to the TTL sweep.
    assert metrics["swept"] == metrics["n_abandoned"]
    assert metrics["leftover"] == metrics["n_abandoned"]


def test_session_traffic(report, benchmark):
    rows, metrics = run_traffic_bench(TINY)
    report("\n".join(rows))
    _bench_result(TINY, metrics).write(
        os.path.join(os.path.dirname(__file__), "results")
    )
    benchmark.extra_info["sessions_per_s"] = round(
        metrics["sessions_per_s"], 2
    )
    benchmark.extra_info["checkpoint_overhead"] = round(
        metrics["checkpoint_overhead"], 2
    )
    benchmark.pedantic(
        lambda: None, rounds=1, iterations=1
    )  # timing captured manually above; keep the bench in the report
    _check(metrics)


def main(argv=None) -> int:
    parser = tiny_arg_parser(
        "Session traffic simulator benchmark (fixture-free entry)"
    )
    args = parser.parse_args(argv)
    tiny = args.tiny or TINY_ENV
    rows, metrics = run_traffic_bench(tiny)
    emit(rows, _bench_result(tiny, metrics))
    _check(metrics)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
