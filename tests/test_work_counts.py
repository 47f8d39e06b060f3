"""The work the benchmark's traffic costs the server, pinned exactly.

``benchmarks/e2e`` replays seeded feedback dialogues over the real TCP
front.  Its traced run (``tracing.replay`` under
``tracing.Instrumentation``) wraps the layers' public functions and
records one span per call.  The timings move with the host; the counts
do not: for one seed the same requests make the same ``localized_knn``
calls, scan the same rows and send the same bytes.  This module replays
three workloads at seed 3 on the benchmark's 15 000-image database and
compares their counts with ``work_counts.json`` at zero tolerance.

Two of the paper's efficiency claims are rows of that table:

* "no k-NN computation happens during feedback" (§3): the ``open``,
  ``display``, ``submit`` and ``abandon`` requests run no
  ``localized_knn`` and no distance kernel;
* "many concurrent users" (§5.2.2, §6): the server scans rows only in
  the final round, fewer than one global scan of the database, where a
  traditional feedback loop scans every row once per round.

A change that alters the work on purpose rewrites the baseline with
``PYTHONPATH=src python tests/test_work_counts.py`` and names each
changed count.
"""

from __future__ import annotations

import importlib.util
import json
import os
import statistics
import sys
import tempfile
import time
from pathlib import Path
from types import SimpleNamespace
from typing import Any, Callable, Dict, Iterable
from unittest import mock

import pytest

import repro.core.session

ROOT = Path(__file__).resolve().parent.parent
E2E = ROOT / "benchmarks" / "e2e"
BASELINE = Path(__file__).with_name("work_counts.json")
SEED = 3
WORKLOADS = ("scan_wide", "dialogue_sqlite", "scan_wide_2shard")
#: The benchmark's modules, in an order that lets each one's imports of
#: the others resolve from ``sys.modules``.
E2E_MODULES = ("stats", "workloads", "loadgen", "verify", "tracing", "run")
#: What ``time.time()`` reads in the session module during a replay.
#: Each session record carries created/updated stamps, and a stamp's
#: printed length varies with the wall clock, so without the pin the
#: SQLite record bytes would not repeat.
PINNED_CLOCK = 1_800_000_000.0

KNN_SPAN = "index.rfs.localized_knn"
ENCODE_SPAN = "serve.tcp.encode"


def load_e2e() -> SimpleNamespace:
    """The benchmark's modules, loaded by path.

    Importing ``run.py`` puts ``src/`` on ``sys.path`` and pins the BLAS
    to one thread through the environment.  Both are restored, and so
    are the plain module names, so nothing leaks into the rest of the
    suite.
    """
    saved_path, saved_env = list(sys.path), dict(os.environ)
    saved_modules = {name: sys.modules.get(name) for name in E2E_MODULES}
    loaded = {}
    try:
        for name in E2E_MODULES:
            spec = importlib.util.spec_from_file_location(
                name, E2E / f"{name}.py"
            )
            module = importlib.util.module_from_spec(spec)
            sys.modules[name] = module
            spec.loader.exec_module(module)
            loaded[name] = module
    finally:
        sys.path[:] = saved_path
        os.environ.clear()
        os.environ.update(saved_env)
        for name, module in saved_modules.items():
            if module is None:
                sys.modules.pop(name, None)
            else:
                sys.modules[name] = module
    return SimpleNamespace(**loaded)


class _PinnedClock:
    """The ``time`` module with ``time()`` fixed at :data:`PINNED_CLOCK`."""

    def __getattr__(self, name: str) -> Any:
        return getattr(time, name)

    @staticmethod
    def time() -> float:
        return PINNED_CLOCK


def work_counts(tracing: Any, replay: Any) -> Dict[str, int]:
    """The integer totals of one traced replay's measured requests."""
    measured = [r for r in replay.requests if r.measured]
    finalizes = {r.req for r in measured if r.op == "finalize"}
    feedback = {r.req for r in measured} - finalizes
    served = finalizes | feedback

    def total(
        names: Iterable[str],
        reqs: set,
        value: Callable[[Any], int] = lambda span: 1,
    ) -> int:
        names = set(names)
        return sum(
            value(s) for s in replay.spans
            if s.name in names and s.req in reqs
        )

    def rows(span: Any) -> int:
        return span.attrs["rows"]

    def reply_bytes(span: Any) -> int:
        return span.attrs["bytes"] + 1  # the newline

    kernels = tracing.KERNEL_SPANS
    return {
        "dialogues": len(replay.dialogues),
        "requests": len(measured),
        "failed_requests": sum(r.status != "ok" for r in measured),
        "finalizes": len(finalizes),
        "knn_calls": total([KNN_SPAN], finalizes),
        "kernel_calls": total(kernels, finalizes),
        "leaves_visited": total(tracing.BLOCK_SPANS, finalizes),
        "rows_scanned": total(kernels, finalizes, rows),
        "subqueries": total(
            ["exec.run_subqueries"], finalizes,
            lambda span: span.attrs["tasks"],
        ),
        "reply_bytes": total([ENCODE_SPAN], finalizes, reply_bytes),
        "reply_bytes_median": int(
            statistics.median(
                reply_bytes(s) for s in replay.spans
                if s.name == ENCODE_SPAN and s.req in finalizes
            )
        ),
        "session_puts": total(["sessionstore.put"], served),
        "session_gets": total(["sessionstore.get"], served),
        "session_deletes": total(["sessionstore.delete"], served),
        "session_record_bytes": total(
            ["core.session_state.encode"], served,
            lambda span: span.attrs["bytes"],
        ),
        "feedback_requests": len(feedback),
        "feedback_knn_calls": total([KNN_SPAN], feedback),
        "feedback_kernel_calls": total(kernels, feedback),
        "feedback_rows_scanned": total(kernels, feedback, rows),
        "feedback_reply_bytes": total([ENCODE_SPAN], feedback, reply_bytes),
    }


def measure(
    e2e: SimpleNamespace, database: Any, name: str, workdir: Path
) -> Dict[str, int]:
    """Counts of the traced replay ``run.py --workload NAME --trace 1``
    makes at :data:`SEED` (its warm-up unmeasured, as there)."""
    tracing = e2e.tracing
    workload = e2e.workloads.WORKLOADS[name]
    warmup = e2e.run.FULL.trace_warmup
    plan = e2e.workloads.build_plan(
        workload, SEED, warmup + workload.trace_dialogues, database.features
    )
    recorder = tracing.Recorder()
    with mock.patch.object(
        repro.core.session, "time", _PinnedClock()
    ), tracing.Instrumentation(recorder) as instrumentation:
        replay = tracing.replay(
            workload, database, plan, workdir,
            n_warmup=warmup, recorder=recorder,
        )
    counted = {
        KNN_SPAN, ENCODE_SPAN, "exec.run_subqueries",
        "sessionstore.put", "sessionstore.get", "sessionstore.delete",
        "core.session_state.encode",
        *tracing.KERNEL_SPANS, *tracing.BLOCK_SPANS,
    }
    # An unwrapped function leaves no spans, and its count would read 0.
    unwrapped = counted.intersection(instrumentation.missing)
    assert not unwrapped, instrumentation.warnings
    return work_counts(tracing, replay)


@pytest.fixture(scope="module")
def e2e() -> SimpleNamespace:
    return load_e2e()


@pytest.fixture(scope="module")
def counts_of(e2e, tmp_path_factory) -> Callable[[str], Dict[str, int]]:
    """Workload name → its counts; each workload is replayed once."""
    database = e2e.run.make_database(e2e.workloads.N_IMAGES)
    cache: Dict[str, Dict[str, int]] = {}

    def get(name: str) -> Dict[str, int]:
        if name not in cache:
            workdir = tmp_path_factory.mktemp(f"counts-{name}")
            cache[name] = measure(e2e, database, name, workdir)
        return cache[name]

    return get


@pytest.fixture(scope="module")
def baseline() -> Dict[str, Any]:
    return json.loads(BASELINE.read_text())


class TestBaseline:
    def test_covers_the_replayed_workloads(self, baseline):
        assert baseline["seed"] == SEED
        assert sorted(baseline["workloads"]) == sorted(WORKLOADS)

    @pytest.mark.parametrize("name", WORKLOADS)
    def test_counts_are_equal(self, name, counts_of, baseline):
        assert counts_of(name) == baseline["workloads"][name]


class TestPaperClaims:
    @pytest.mark.parametrize("name", WORKLOADS)
    def test_no_knn_computation_during_feedback(self, name, counts_of):
        # §3: feedback rounds walk the RFS structure's representatives;
        # only the final round runs localized k-NN over stored rows.
        counts = counts_of(name)
        assert counts["feedback_requests"] > 0
        assert counts["feedback_knn_calls"] == 0
        assert counts["feedback_kernel_calls"] == 0
        assert counts["feedback_rows_scanned"] == 0
        assert counts["failed_requests"] == 0

    @pytest.mark.parametrize("name", WORKLOADS)
    def test_a_dialogue_scans_less_than_one_global_round(
        self, name, counts_of, e2e
    ):
        # §5.2.2 / §6: a traditional loop scans every row once per
        # feedback round; the rows a QD dialogue costs the server,
        # feedback and final round together, average below one such
        # scan.
        counts = counts_of(name)
        assert counts["finalizes"] > 0
        server_rows = (
            counts["feedback_rows_scanned"] + counts["rows_scanned"]
        )
        assert server_rows < counts["finalizes"] * e2e.workloads.N_IMAGES


def main() -> None:
    """Rewrite ``work_counts.json`` from fresh replays."""
    loaded = load_e2e()
    database = loaded.run.make_database(loaded.workloads.N_IMAGES)
    counts = {}
    for name in WORKLOADS:
        with tempfile.TemporaryDirectory() as tmp:
            counts[name] = measure(loaded, database, name, Path(tmp))
    BASELINE.write_text(
        json.dumps({"seed": SEED, "workloads": counts}, indent=2) + "\n"
    )
    print(f"wrote {BASELINE}")


if __name__ == "__main__":
    main()
