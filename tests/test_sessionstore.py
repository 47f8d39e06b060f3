"""Externalized session state: codec, stores, and resume parity.

The load-bearing contract (ROADMAP item 2): a feedback session
checkpointed after any round and resumed — by the same process, another
thread, or a *fresh* process — must continue **bit-identically** to the
never-suspended run, for every store backend.
``scripts/check.sh`` runs the ``Parity`` tests as a no-skip gate.
"""

from __future__ import annotations

import contextlib
import copy
import dataclasses
import gc
import hashlib
import json
import math
import os
import sqlite3
import subprocess
import sys
import threading
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import QDConfig
from repro.core.clientserver import SessionFrontEnd
from repro.core.session import FeedbackSession
from repro.core.session_state import (
    STATE_FORMAT_VERSION,
    SessionState,
    SubQueryState,
    config_fingerprint,
    key_sorted,
)
from repro.errors import (
    ConfigurationError,
    SessionCodecError,
    SessionNotFoundError,
    SessionStateError,
    SessionStoreError,
    StaleSessionError,
)
from repro.sessionstore import base as store_base
from repro.sessionstore import (
    SESSION_STORE_KINDS,
    InMemorySessionStore,
    SQLiteSessionStore,
    decode_state,
    encode_state,
    make_session_store,
)

SEED = 1234
ROUNDS = 3
K = 60
SCREENS = 2
MARKS_PER_ROUND = 6


def _store(kind: str, tmp_path):
    """A fresh backend of the requested kind under ``tmp_path``."""
    tmp_path.mkdir(parents=True, exist_ok=True)
    return make_session_store(kind, path=str(tmp_path / f"store-{kind}"))


def _mark_fn(labels):
    """Deterministic oracle: mark same-category images as the first shown."""

    def mark(shown):
        if not shown:
            return []
        target = labels[shown[0]]
        return [i for i in shown if labels[i] == target][:MARKS_PER_ROUND]

    return mark


def _signature(result):
    """Everything rank-relevant about a final result, exactly."""
    return [
        (
            group.leaf_node_id,
            tuple((item.item_id, item.score) for item in group.items),
        )
        for group in result.groups
    ]


def _run_session(
    rfs,
    labels,
    config,
    *,
    store=None,
    suspend_after=None,
    session_id="sess",
):
    """Drive one full dialogue; optionally suspend+resume mid-way.

    With ``suspend_after=r`` the live session object is dropped after
    round ``r``'s submit and a new one is rehydrated from the store —
    the only continuity is the externalized record.  Returns
    (per-round shown tuples, final ranking signature).
    """
    session = FeedbackSession(
        rfs, config, seed=SEED, session_id=session_id, store=store
    )
    mark = _mark_fn(labels)
    shown_log = []
    for rnd in range(1, ROUNDS + 1):
        shown = session.display(screens=SCREENS)
        shown_log.append(tuple(shown))
        session.submit(mark(shown))
        if store is not None and suspend_after == rnd:
            del session  # nothing survives but the store record
            session = FeedbackSession.restore(
                rfs, store.get(session_id), config=config, store=store
            )
    return shown_log, _signature(session.finalize(K))


# ---------------------------------------------------------------------------
# Resume parity — gated no-skip by scripts/check.sh (-k Parity)
# ---------------------------------------------------------------------------
class TestResumeParity:
    """Checkpoint/resume must never change what the user sees or gets."""

    @pytest.mark.parametrize("backend", SESSION_STORE_KINDS)
    def test_suspend_at_every_round_parity(
        self, rfs, rendered_db, backend, tmp_path
    ):
        """Suspend after each round in turn; all must match the reference."""
        config = QDConfig()
        reference = _run_session(rfs, rendered_db.labels, config)
        for suspend_after in range(1, ROUNDS + 1):
            with _store(backend, tmp_path / str(suspend_after)) as store:
                resumed = _run_session(
                    rfs,
                    rendered_db.labels,
                    config,
                    store=store,
                    suspend_after=suspend_after,
                )
                assert resumed == reference, (
                    f"suspend after round {suspend_after} diverged "
                    f"({backend})"
                )
                # finalize() removes the completed dialogue's record.
                assert store.list_ids() == []

    @pytest.mark.parametrize("backend", SESSION_STORE_KINDS)
    def test_mid_round_suspend_parity(self, rfs, rendered_db, backend, tmp_path):
        """Suspending between display() and submit() carries the screen."""
        config = QDConfig()
        reference = _run_session(rfs, rendered_db.labels, config)
        mark = _mark_fn(rendered_db.labels)
        with _store(backend, tmp_path) as store:
            session = FeedbackSession(
                rfs, config, seed=SEED, session_id="mid", store=store
            )
            shown_log = [tuple(session.display(screens=SCREENS))]
            session.checkpoint()  # explicit: mid-round state
            session = FeedbackSession.restore(
                rfs, store.get("mid"), config=config, store=store
            )
            session.submit(mark(list(shown_log[0])))
            for _ in range(ROUNDS - 1):
                shown = session.display(screens=SCREENS)
                shown_log.append(tuple(shown))
                session.submit(mark(shown))
            assert (shown_log, _signature(session.finalize(K))) == reference

    @pytest.mark.parametrize("backend", ["sqlite"])
    def test_fresh_process_resume_parity(self, rfs, rendered_db, backend, tmp_path):
        """A brand-new interpreter resumes to the identical final ranking.

        The child process shares nothing with this one but the store
        directory and the deterministic build seeds.
        """
        config = QDConfig()
        reference = _run_session(rfs, rendered_db.labels, config)
        with _store(backend, tmp_path) as store:
            session = FeedbackSession(
                rfs, config, seed=SEED, session_id="handover", store=store
            )
            mark = _mark_fn(rendered_db.labels)
            shown_log = []
            shown = session.display(screens=SCREENS)
            shown_log.append(tuple(shown))
            session.submit(mark(shown))  # auto-checkpoints round 1
        store_path = str(tmp_path / f"store-{backend}")
        script = (
            "import json, sys\n"
            "from repro.config import DatasetConfig, QDConfig, RFSConfig\n"
            "from repro.core.session import FeedbackSession\n"
            "from repro.datasets.build import build_rendered_database\n"
            "from repro.index.rfs import RFSStructure\n"
            "from repro.sessionstore import make_session_store\n"
            "from tests.test_sessionstore import (\n"
            "    K, ROUNDS, SCREENS, _mark_fn, _signature,\n"
            ")\n"
            "from tests.conftest import (\n"
            "    SMALL_DB_CATEGORIES, SMALL_DB_IMAGES, SMALL_RFS,\n"
            ")\n"
            "backend, path = sys.argv[1], sys.argv[2]\n"
            "db = build_rendered_database(DatasetConfig(\n"
            "    total_images=SMALL_DB_IMAGES,\n"
            "    n_categories=SMALL_DB_CATEGORIES, seed=123))\n"
            "rfs = RFSStructure.build(db.features, SMALL_RFS, seed=77)\n"
            "store = make_session_store(backend, path=path)\n"
            "session = FeedbackSession.restore(\n"
            "    rfs, store.get('handover'), config=QDConfig(), store=store)\n"
            "mark = _mark_fn(db.labels)\n"
            "shown_log = []\n"
            "for _ in range(ROUNDS - 1):\n"
            "    shown = session.display(screens=SCREENS)\n"
            "    shown_log.append(list(shown))\n"
            "    session.submit(mark(shown))\n"
            "print(json.dumps(\n"
            "    {'shown': shown_log,\n"
            "     'sig': _signature(session.finalize(K))}))\n"
        )
        env = dict(os.environ)
        repo_root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        env["PYTHONPATH"] = os.pathsep.join(
            [os.path.join(repo_root, "src"), repo_root]
        )
        proc = subprocess.run(
            [sys.executable, "-c", script, backend, store_path],
            capture_output=True,
            text=True,
            env=env,
            cwd=repo_root,
            timeout=600,
        )
        assert proc.returncode == 0, proc.stderr
        child = json.loads(proc.stdout.strip().splitlines()[-1])
        child_shown = [tuple(s) for s in child["shown"]]
        child_sig = [
            (leaf, tuple((i, s) for i, s in items))
            for leaf, items in child["sig"]
        ]
        assert shown_log + child_shown == reference[0]
        assert child_sig == reference[1]

    def test_frontend_handoff_parity(self, rfs, rendered_db, tmp_path):
        """Every request on a different worker process' stand-in (its
        own engine over the shared tree and store), same ranking."""
        config = QDConfig()
        reference = _run_session(rfs, rendered_db.labels, config)
        with _store("sqlite", tmp_path) as store:
            workers = [
                SessionFrontEnd(
                    _engine(rendered_db, rfs, store, config),
                    worker_id=f"w{i}",
                )
                for i in range(3)
            ]
            sid = workers[0].open(seed=SEED, session_id="hopper")
            mark = _mark_fn(rendered_db.labels)
            shown_log = []
            for rnd in range(ROUNDS):
                shown = workers[(2 * rnd + 1) % 3].display(
                    sid, screens=SCREENS
                )
                shown_log.append(tuple(shown))
                workers[(2 * rnd + 2) % 3].submit(sid, mark(shown))
            result = workers[0].finalize(sid, K)
            assert (shown_log, _signature(result)) == reference
            assert store.list_ids() == []


# ---------------------------------------------------------------------------
# The hot copy — same no-skip gate (class name ends in Parity)
# ---------------------------------------------------------------------------
def _engine(rendered_db, rfs, store, config=None):
    from repro.core.engine import QueryDecompositionEngine

    engine = QueryDecompositionEngine(rendered_db, rfs, config or QDConfig())
    engine.attach_session_store(store)
    return engine


def _record(store, sid):
    """The stored record of ``sid``, wall-clock stamps aside."""
    text = store.read_payload(sid)
    if text is None:
        return None
    data = json.loads(text)
    del data["created_unix"], data["updated_unix"]
    return data


def _outcome(result):
    """What a client can tell about one ``handle`` reply."""
    value = result.value
    if hasattr(value, "groups"):
        value = _signature(value)
    return (result.ok, result.error_kind, result.error, value)


@pytest.fixture()
def decode_calls(monkeypatch):
    """Counts ``decode_state`` calls made through ``SessionStore.get``."""
    from repro.sessionstore import base

    calls = []

    def counting(text):
        calls.append(text)
        return decode_state(text)

    monkeypatch.setattr(base, "decode_state", counting)
    return calls


class TestHotPathParity:
    """Skipping the rebuild must never change what any op returns."""

    @pytest.mark.parametrize("backend", SESSION_STORE_KINDS)
    def test_hot_and_forced_cold_agree_after_every_op(
        self, rfs, rendered_db, backend, tmp_path
    ):
        """Interleaved dialogues, bad ops included: same replies, same
        records, whether the hot copy is used or dropped before every op."""
        mark = _mark_fn(rendered_db.labels)
        with _store(backend, tmp_path / "hot") as hot_store, _store(
            backend, tmp_path / "cold"
        ) as cold_store:
            hot_engine = _engine(rendered_db, rfs, hot_store)
            cold_engine = _engine(rendered_db, rfs, cold_store)
            hot = SessionFrontEnd(hot_engine)
            cold = SessionFrontEnd(cold_engine)
            sids = [f"dlg{i}" for i in range(3)]
            shown = {}

            def both(op, sid, **kwargs):
                # re-attaching the store drops every hot copy
                cold_engine.attach_session_store(cold_store)
                got = _outcome(hot.handle(op, session_id=sid, **kwargs))
                want = _outcome(cold.handle(op, session_id=sid, **kwargs))
                assert got == want, (op, sid)
                for each in sids:
                    assert _record(hot_store, each) == _record(
                        cold_store, each
                    ), (op, sid, each)
                return got

            for i, sid in enumerate(sids):
                assert both("open", sid, seed=SEED + i)[0]
            clean, faulty = sids[0], sids[1:]  # ``clean`` stays hot
            for rnd in range(ROUNDS):
                for sid in sids:
                    reply = both("display", sid, screens=SCREENS)
                    assert reply[0]
                    shown[sid] = reply[3]
                # each failure drops the hot copy; the next op of the
                # dialogue must carry on from the record
                for sid in faulty:
                    assert both("display", sid)[1] == "invalid_state"
                    assert (
                        both("submit", sid, relevant_ids=[-5])[1]
                        == "invalid_state"
                    )
                assert both("display", "ghost")[1] == "not_found"
                for sid in sids:
                    assert both(
                        "submit", sid, relevant_ids=mark(shown[sid])
                    )[0]
                if rnd + 1 < ROUNDS:
                    for sid in faulty:
                        assert (
                            both("display", sid, screens=0)[1]
                            == "invalid_state"
                        )
            assert set(hot_engine._hot_sessions) == set(sids)
            for sid in faulty:
                # fails on the hot object, after it set ``finalized``
                assert both("finalize", sid, k=0)[1] == "invalid_request"
                assert sid not in hot_engine._hot_sessions
            for sid in sids:
                final = both("finalize", sid, k=K)
                assert final[0] and final[3]
                assert both("finalize", sid, k=K)[1] == "not_found"
            assert hot_engine._hot_sessions == {}
            assert hot_store.list_ids() == cold_store.list_ids() == []

    def test_same_engine_dialogue_never_decodes_after_open(
        self, rfs, rendered_db, tmp_path, decode_calls
    ):
        config = QDConfig()
        reference = _run_session(rfs, rendered_db.labels, config)
        with _store("sqlite", tmp_path) as store:
            engine = _engine(rendered_db, rfs, store, config)
            # several workers of one engine share its hot copies
            workers = [
                SessionFrontEnd(engine, worker_id=f"w{i}") for i in range(3)
            ]
            sid = workers[0].open(seed=SEED, session_id="sticky")
            mark = _mark_fn(rendered_db.labels)
            shown_log = []
            for rnd in range(ROUNDS):
                shown = workers[(2 * rnd + 1) % 3].display(
                    sid, screens=SCREENS
                )
                shown_log.append(tuple(shown))
                workers[(2 * rnd + 2) % 3].submit(sid, mark(shown))
            result = workers[0].finalize(sid, K)
            assert (shown_log, _signature(result)) == reference
            assert decode_calls == []
            assert store.list_ids() == []

    def test_two_engines_alternating_go_cold_on_every_op(
        self, rfs, rendered_db, tmp_path, decode_calls
    ):
        """One dialogue, its ops alternating between two engines over one
        SQLite file: each engine's hot copy is stale every time."""
        config = QDConfig()
        reference = _run_session(rfs, rendered_db.labels, config)
        with _store("sqlite", tmp_path) as store:
            fronts = [
                SessionFrontEnd(_engine(rendered_db, rfs, store, config))
                for _ in range(2)
            ]
            sid = fronts[0].open(seed=SEED, session_id="pingpong")
            mark = _mark_fn(rendered_db.labels)
            shown_log = []
            ops = 0
            for rnd in range(ROUNDS):
                ops += 1
                shown = fronts[ops % 2].display(sid, screens=SCREENS)
                assert len(decode_calls) == ops
                shown_log.append(tuple(shown))
                ops += 1
                fronts[ops % 2].submit(sid, mark(shown))
                assert len(decode_calls) == ops
            ops += 1
            result = fronts[ops % 2].finalize(sid, K)
            assert len(decode_calls) == ops
            assert (shown_log, _signature(result)) == reference

    def test_memory_record_rewritten_by_another_engine_is_refused(
        self, rfs, rendered_db, decode_calls
    ):
        """Two engines over one in-memory store: the record is the
        object the other engine put, so each hot copy is refused and
        every op after the first resumes from the record."""
        config = QDConfig()
        reference = _run_session(rfs, rendered_db.labels, config)
        store = InMemorySessionStore()
        first, second = (
            SessionFrontEnd(_engine(rendered_db, rfs, store, config))
            for _ in range(2)
        )
        sid = first.open(seed=SEED, session_id="shared")
        mark = _mark_fn(rendered_db.labels)
        shown_log = []
        for rnd in range(ROUNDS):
            shown = first.display(sid, screens=SCREENS)
            assert len(decode_calls) == 2 * rnd  # hot only after open
            shown_log.append(tuple(shown))
            second.submit(sid, mark(shown))
            assert len(decode_calls) == 2 * rnd + 1
        assert first.engine._hot_sessions  # stale, never handed out
        result = first.finalize(sid, K)
        assert len(decode_calls) == 2 * ROUNDS
        assert (shown_log, _signature(result)) == reference

    def test_memory_record_does_not_alias_the_live_session(
        self, rfs, rendered_db
    ):
        """The session keeps going after ``put``; the stored record and
        the text it renders stay what was checkpointed."""
        store = InMemorySessionStore()
        session = FeedbackSession(
            rfs, QDConfig(), seed=SEED, session_id="live", store=store
        )
        mark = _mark_fn(rendered_db.labels)
        shown = session.display(screens=SCREENS)
        record = session.checkpoint()  # mid-round: the live screen too
        assert store.read_record("live") is record
        text = store.read_payload("live")
        assert text == encode_state(record)
        session.bind_store(None)  # keep going without re-checkpointing
        for _ in range(ROUNDS):
            session.submit(mark(shown))
            shown = session.display(screens=SCREENS)
        assert store.read_record("live") is record
        assert store.read_payload("live") == text
        resumed = FeedbackSession.restore(rfs, store.get("live"))
        assert dataclasses.replace(
            resumed.capture(), updated_unix=record.updated_unix
        ) == record
        assert session.round == ROUNDS + 1

    def test_failed_op_sweep_and_abandon_drop_the_hot_copy(
        self, rfs, rendered_db, decode_calls
    ):
        store = InMemorySessionStore()
        engine = _engine(rendered_db, rfs, store)
        front = SessionFrontEnd(engine)
        mark = _mark_fn(rendered_db.labels)

        # a failed op: the next one rebuilds, the one after is hot again
        sid = front.open(seed=SEED, session_id="fails")
        shown = front.display(sid, screens=SCREENS)
        with pytest.raises(SessionStateError):
            front.submit(sid, [-1])
        assert sid not in engine._hot_sessions
        front.submit(sid, mark(shown))
        assert len(decode_calls) == 1
        front.display(sid, screens=SCREENS)
        assert len(decode_calls) == 1

        # a TTL sweep: the record reads back absent
        assert store.sweep_expired(1.0, now=2e12) == [sid]
        with pytest.raises(SessionNotFoundError):
            front.submit(sid, [])
        assert sid not in engine._hot_sessions

        # abandon
        sid = front.open(seed=SEED, session_id="leaves")
        front.display(sid, screens=SCREENS)
        assert front.abandon(sid) is True
        assert sid not in engine._hot_sessions
        with pytest.raises(SessionNotFoundError):
            front.submit(sid, [])

        # someone else rewrote the record (here: the previous screen)
        sid = front.open(seed=SEED, session_id="rewritten")
        before = store.get(sid)
        front.display(sid, screens=SCREENS)
        store.put(before)
        n = len(decode_calls)
        front.display(sid, screens=SCREENS)  # legal only from ``before``
        assert len(decode_calls) == n + 1

        # another structure object, even at the same version
        engine.rfs = copy.copy(rfs)
        n = len(decode_calls)
        front.submit(sid, [])
        assert len(decode_calls) == n + 1
        assert engine._hot_sessions[sid].rfs is engine.rfs

        # a new store, even over the same records, starts cold
        engine.attach_session_store(store)
        assert engine._hot_sessions == {}

    def test_generation_swap_goes_cold_and_frees_the_old_tree(
        self, rendered_db, decode_calls, monkeypatch
    ):
        import numpy as np

        from repro.config import MutationConfig
        from repro.core.engine import QueryDecompositionEngine
        from repro.index import generations

        monkeypatch.setattr(generations, "MAX_RETIRED", 1)
        engine = QueryDecompositionEngine.build(
            rendered_db, seed=77,
            mutations=MutationConfig(compact_threshold=10**6),
        )
        engine.attach_session_store(InMemorySessionStore())
        front = SessionFrontEnd(engine)
        mark = _mark_fn(rendered_db.labels)
        rng = np.random.default_rng(5)

        def swap():
            engine.insert_image(rng.normal(size=rendered_db.dims))
            assert engine.mutations.compact() is not None

        sid = front.open(seed=SEED, session_id="pinned")
        shown = front.display(sid, screens=SCREENS)
        old_tree = weakref.ref(engine.rfs)
        swap()
        assert engine._hot_sessions == {}
        # resumes on the retired generation: one rebuild, then hot again
        front.submit(sid, mark(shown))
        assert len(decode_calls) == 1
        assert engine._hot_sessions[sid].rfs is old_tree()
        front.display(sid, screens=SCREENS)
        assert len(decode_calls) == 1
        # out of the MAX_RETIRED window: fenced as before, tree released
        swap()
        with pytest.raises(StaleSessionError, match="structure version"):
            front.submit(sid, [])
        assert engine._hot_sessions == {}
        gc.collect()
        assert old_tree() is None
        engine.close()

    def test_callers_objects_never_come_back_through_the_cache(
        self, rfs, rendered_db
    ):
        engine = _engine(rendered_db, rfs, InMemorySessionStore())
        front = SessionFrontEnd(engine)
        # open_session / resume_session: the caller's own objects
        mine = engine.open_session(seed=SEED, session_id="mine")
        assert engine._hot_sessions == {}
        front.display("mine", screens=SCREENS)
        resumed = engine.resume_session("mine")
        hot = engine._hot_sessions["mine"]
        assert hot is not mine and hot is not resumed
        assert engine.resume_session("mine") is not resumed
        # what the front end let go of is handed out once, then gone
        taken = engine.checkout_session("mine")
        assert taken is hot
        assert engine.checkout_session("mine") is not taken

    def test_concurrent_dialogues_share_a_small_cache(
        self, rfs, rendered_db, monkeypatch
    ):
        """More threads than cores, a capacity that forces eviction:
        every dialogue still ends exactly like its serial replay."""
        from repro.core import engine as engine_module

        monkeypatch.setattr(engine_module, "HOT_SESSION_CAPACITY", 3)
        config = QDConfig()
        engine = _engine(rendered_db, rfs, InMemorySessionStore(), config)
        mark = _mark_fn(rendered_db.labels)
        n_threads, per_thread = 8, 3
        got, errors = {}, []

        def reference(seed):
            session = FeedbackSession(rfs, config, seed=seed)
            log = []
            for _ in range(ROUNDS):
                shown = session.display(screens=SCREENS)
                log.append(tuple(shown))
                session.submit(mark(shown))
            return log, _signature(session.finalize(K))

        def worker(n):
            front = SessionFrontEnd(engine, worker_id=f"t{n}")
            try:
                for j in range(per_thread):
                    seed = 100 * n + j
                    sid = front.open(seed=seed)
                    log = []
                    for _ in range(ROUNDS):
                        shown = front.display(sid, screens=SCREENS)
                        log.append(tuple(shown))
                        front.submit(sid, mark(shown))
                        assert len(engine._hot_sessions) <= 3 + n_threads
                    got[seed] = (log, _signature(front.finalize(sid, K)))
            except BaseException as exc:  # surfaced after join
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [
                threading.Thread(target=worker, args=(n,))
                for n in range(n_threads)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120.0)
                assert not thread.is_alive()
        finally:
            sys.setswitchinterval(interval)
        assert errors == []
        assert len(got) == n_threads * per_thread
        for seed, outcome in got.items():
            assert outcome == reference(seed), seed
        assert len(engine._hot_sessions) <= 3
        assert engine.session_store.list_ids() == []


# ---------------------------------------------------------------------------
# Where text is produced: at put for the text backends, on read in memory
# ---------------------------------------------------------------------------
# ---------------------------------------------------------------------------
# Two ops racing on one session: one lands, the other is refused
# ---------------------------------------------------------------------------
RACING_BACKENDS = ["memory", "sqlite"]


@contextlib.contextmanager
def _two_workers(backend, rendered_db, rfs, tmp_path):
    """Two front-ends over one session store, as two server slots see
    it: one engine (the memory store), or two engines holding their own
    store objects over one SQLite file or one directory."""
    if backend == "memory":
        store = InMemorySessionStore()
        engine = _engine(rendered_db, rfs, store)
        yield (SessionFrontEnd(engine), SessionFrontEnd(engine)), store
        return
    path = tmp_path / "sessions"
    with make_session_store(backend, str(path)) as one, make_session_store(
        backend, str(path)
    ) as two:
        yield (
            SessionFrontEnd(_engine(rendered_db, rfs, one)),
            SessionFrontEnd(_engine(rendered_db, rfs, two)),
        ), one


def _race(monkeypatch, late, early, sid, late_op, early_op):
    """``late`` takes the session for its op, then all of ``early``'s op
    runs before ``late`` writes.  Returns both replies, ``early``'s
    first."""
    replies = []
    engine = late.engine
    checkout = engine.checkout_session

    def checkout_then_race(session_id):
        session = checkout(session_id)
        monkeypatch.setattr(engine, "checkout_session", checkout)
        replies.append(early.handle(early_op[0], session_id=sid,
                                    **early_op[1]))
        return session

    monkeypatch.setattr(engine, "checkout_session", checkout_then_race)
    replies.append(late.handle(late_op[0], session_id=sid, **late_op[1]))
    return replies


class TestRacingOps:
    """Two requests on one session, interleaved the way two server slots
    can run them: exactly one is acknowledged, the other answers
    ``stale_session`` and changes nothing."""

    @pytest.mark.parametrize("backend", RACING_BACKENDS)
    def test_second_resume_cannot_overwrite_the_hot_copy(
        self, backend, rendered_db, rfs, tmp_path
    ):
        with _two_workers(backend, rendered_db, rfs, tmp_path) as (
            (front_a, front_b), store
        ):
            sid = front_a.open(seed=SEED, session_id="race")
            shown = front_a.display(sid, screens=SCREENS)
            a = front_a.engine.checkout_session(sid)  # the hot copy
            b = front_b.engine.checkout_session(sid)  # from the record
            assert a is not b
            a.submit(shown[:2])
            front_a.engine.checkin_session(a)
            with pytest.raises(StaleSessionError, match="race"):
                b.submit(shown[2:4])
            assert store.get(sid).marked == tuple(sorted(shown[:2]))
            # the acknowledged dialogue carries on
            assert front_a.display(sid, screens=SCREENS)

    @pytest.mark.parametrize("backend", RACING_BACKENDS)
    def test_open_of_a_live_id_is_refused_and_changes_nothing(
        self, backend, rendered_db, rfs, tmp_path
    ):
        with _two_workers(backend, rendered_db, rfs, tmp_path) as (
            (front_a, front_b), store
        ):
            sid = front_a.open(seed=SEED, session_id="alice")
            shown = front_a.display(sid, screens=SCREENS)
            front_a.submit(sid, shown[:3])
            before = store.read_payload(sid)
            for front in (front_a, front_b):
                reply = front.handle("open", seed=SEED + 1, session_id=sid)
                assert (reply.ok, reply.error_kind) == (
                    False, "invalid_request"
                )
                assert "'alice'" in reply.error
            assert store.read_payload(sid) == before
            assert front_a.display(sid, screens=SCREENS)

    @pytest.mark.parametrize("backend", RACING_BACKENDS)
    @pytest.mark.parametrize(
        "late_op, early_op",
        [("submit", "submit"), ("display", "display"),
         ("finalize", "submit")],
    )
    def test_interleaved_ops_end_with_one_ok_and_one_stale(
        self, backend, late_op, early_op, rendered_db, rfs, tmp_path,
        monkeypatch,
    ):
        with _two_workers(backend, rendered_db, rfs, tmp_path) as (
            (front_a, front_b), store
        ):
            sid = front_a.open(seed=SEED, session_id="race")
            first = front_a.display(sid, screens=SCREENS)[:1]
            front_a.submit(sid, first)
            shown = []
            if early_op == "submit":
                shown = front_a.display(sid, screens=SCREENS)
            args = {
                ("submit", 0): {"relevant_ids": shown[:2]},
                ("submit", 1): {"relevant_ids": shown[2:4]},
                ("display", 0): {},
                ("display", 1): {},
                ("finalize", 1): {"k": K},
            }
            before = store.get(sid)
            replies = _race(
                monkeypatch, front_a, front_b, sid,
                (late_op, args[late_op, 1]), (early_op, args[early_op, 0]),
            )
            assert [(r.ok, r.error_kind) for r in replies] == [
                (True, ""), (False, "stale_session"),
            ]
            assert replies[1].retriable
            after = store.get(sid)
            if early_op == "submit":
                assert after.marked == tuple(sorted({*first, *shown[:2]}))
                assert after.round == before.round
                assert not after.awaiting_feedback
            else:
                assert after.round == before.round + 1
                assert after.awaiting_feedback
                assert set(after.display_owner) == set(replies[0].value)


@pytest.fixture()
def encode_calls(monkeypatch):
    """Counts ``encode_state`` calls made through the session stores."""
    from repro.sessionstore import base

    calls = []

    def counting(state):
        calls.append(state)
        return encode_state(state)

    monkeypatch.setattr(base, "encode_state", counting)
    return calls


class TestCheckpointEncodes:
    @pytest.mark.parametrize("metrics_on", [False, True])
    @pytest.mark.parametrize("backend, per_op", [("memory", 0), ("sqlite", 1)])
    def test_encodes_per_display_and_submit(
        self, rfs, rendered_db, tmp_path, encode_calls,
        backend, per_op, metrics_on,
    ):
        from repro import obs

        registry = obs.MetricsRegistry()
        recording = (
            obs.use_metrics(registry) if metrics_on
            else contextlib.nullcontext()
        )
        with _store(backend, tmp_path) as store, recording:
            front = SessionFrontEnd(_engine(rendered_db, rfs, store))
            sid = front.open(seed=SEED)
            mark = _mark_fn(rendered_db.labels)
            for _ in range(ROUNDS):
                n = len(encode_calls)
                shown = front.display(sid, screens=SCREENS)
                assert len(encode_calls) == n + per_op
                front.submit(sid, mark(shown))
                assert len(encode_calls) == n + 2 * per_op
            # memory renders its one text here; sqlite reads its own
            n = len(encode_calls)
            text = store.read_payload(sid)
            assert len(encode_calls) == n + 1 - per_op
            assert text == encode_state(encode_calls[-1])
        observed = registry.histogram(
            "qd_session_state_bytes", labels={"backend": backend}
        )
        assert observed.count == (len(encode_calls) if metrics_on else 0)


# ---------------------------------------------------------------------------
# Codec
# ---------------------------------------------------------------------------
class TestCodec:
    def _captured_state(self, rfs, rendered_db) -> SessionState:
        session = FeedbackSession(rfs, QDConfig(), seed=SEED)
        mark = _mark_fn(rendered_db.labels)
        session.submit(mark(session.display(screens=SCREENS)))
        return session.capture()

    def test_roundtrip_is_exact(self, rfs, rendered_db):
        state = self._captured_state(rfs, rendered_db)
        assert decode_state(encode_state(state)) == state
        # Canonical text is stable under a second round-trip.
        text = encode_state(state)
        assert encode_state(decode_state(text)) == text

    def test_rng_restore_is_bit_identical(self, rfs, rendered_db):
        state = self._captured_state(rfs, rendered_db)
        draws = state.restore_rng().integers(0, 2**31, size=16)
        again = decode_state(encode_state(state)).restore_rng().integers(
            0, 2**31, size=16
        )
        assert draws.tolist() == again.tolist()

    @pytest.mark.parametrize(
        "name", ["seed", "random", "Generator", "BitGenerator", 7]
    )
    def test_only_bit_generators_are_restored(self, rfs, rendered_db, name):
        """A record naming anything but a bit generator class is refused
        before numpy runs it (``seed`` used to reseed the global RNG)."""
        state = self._captured_state(rfs, rendered_db)
        forged = dataclasses.replace(
            state, rng_state={**state.rng_state, "bit_generator": name}
        )
        before = np.random.get_state()
        with pytest.raises(SessionCodecError, match="bit generator"):
            forged.restore_rng()
        after = np.random.get_state()
        assert before[0] == after[0] and before[2:] == after[2:]
        assert np.array_equal(before[1], after[1])

    def test_unsupported_format_rejected(self, rfs, rendered_db):
        data = self._captured_state(rfs, rendered_db).to_dict()
        data["state_format"] = STATE_FORMAT_VERSION + 1
        with pytest.raises(SessionCodecError, match="state_format"):
            SessionState.from_dict(data)

    def test_malformed_record_rejected(self):
        with pytest.raises(SessionCodecError):
            decode_state("{not json")
        with pytest.raises(SessionCodecError):
            SessionState.from_dict({"state_format": 1})  # missing fields
        with pytest.raises(SessionCodecError):
            SessionState.from_dict([1, 2, 3])
        screen_as_list = json.loads(PARENT_RECORD)
        screen_as_list["display_owner"] = [36, 24]
        with pytest.raises(SessionCodecError):
            SessionState.from_dict(screen_as_list)

    def test_fingerprint_tracks_ranking_relevant_fields_only(self):
        base = config_fingerprint(QDConfig())
        assert config_fingerprint(QDConfig(display_size=9)) != base
        assert config_fingerprint(QDConfig(boundary_threshold=0.7)) != base
        # Pinned: stored records carry it, so it must not drift.
        assert base == "4758d6f7361288ee"


# ---------------------------------------------------------------------------
# Store backends
# ---------------------------------------------------------------------------
class TestStoreBackends:
    @pytest.mark.parametrize("backend", SESSION_STORE_KINDS)
    def test_crud_cycle(self, rfs, rendered_db, backend, tmp_path):
        session = FeedbackSession(rfs, QDConfig(), seed=SEED)
        mark = _mark_fn(rendered_db.labels)
        session.submit(mark(session.display()))
        state = session.capture()
        with _store(backend, tmp_path) as store:
            assert len(store) == 0
            with pytest.raises(SessionNotFoundError):
                store.get(state.session_id)
            store.put(state)
            assert store.get(state.session_id) == state
            assert store.list_ids() == [state.session_id]
            # Upsert: a later checkpoint replaces the record.
            later = dataclasses.replace(state, round=state.round + 1)
            store.put(later)
            assert store.get(state.session_id).round == state.round + 1
            assert store.delete(state.session_id) is True
            assert store.delete(state.session_id) is False
            assert len(store) == 0

    @pytest.mark.parametrize("backend", SESSION_STORE_KINDS)
    def test_ttl_sweep_removes_only_stale_records(
        self, rfs, rendered_db, backend, tmp_path
    ):
        session = FeedbackSession(rfs, QDConfig(), seed=SEED)
        mark = _mark_fn(rendered_db.labels)
        session.submit(mark(session.display()))
        state = session.capture()
        now = state.updated_unix
        with _store(backend, tmp_path) as store:
            store.put(dataclasses.replace(state, session_id="fresh"))
            store.put(
                dataclasses.replace(
                    state, session_id="stale", updated_unix=now - 7200.0
                )
            )
            assert store.sweep_expired(3600.0, now=now) == ["stale"]
            assert store.list_ids() == ["fresh"]
            # A second sweep is a no-op.
            assert store.sweep_expired(3600.0, now=now) == []

    def test_factory_rejects_bad_inputs(self, tmp_path):
        with pytest.raises(SessionStoreError, match="unknown"):
            make_session_store("redis", path=str(tmp_path))
        with pytest.raises(SessionStoreError, match="path"):
            make_session_store("sqlite")
        assert isinstance(make_session_store("memory"), InMemorySessionStore)

    def test_factory_refuses_the_removed_jsondir_kind(self, tmp_path):
        with pytest.raises(SessionStoreError, match="'jsondir'"):
            make_session_store("jsondir", str(tmp_path / "dir"))
        assert not (tmp_path / "dir").exists()

    @pytest.mark.parametrize(
        "argv",
        [["serve", "--db", "db.npz"], ["sessions", "list"]],
        ids=["serve", "sessions-list"],
    )
    def test_cli_refuses_the_removed_jsondir_kind(self, argv, capsys):
        from repro.cli import main as cli_main

        with pytest.raises(SystemExit) as exc:
            cli_main(argv + ["--session-store", "jsondir"])
        assert exc.value.code == 2
        assert "invalid choice: 'jsondir'" in capsys.readouterr().err

    def test_sqlite_two_worker_checkpoint_contention(
        self, rfs, rendered_db, tmp_path
    ):
        """Two workers checkpoint interleaved dialogues into one DB file.

        WAL + busy_timeout must serialize the writes without errors or
        lost records; every surviving record must decode cleanly.
        """
        n_sessions, n_rounds = 6, 3
        store = SQLiteSessionStore(tmp_path / "contended.db")
        barrier = threading.Barrier(2)
        errors = []
        labels = rendered_db.labels

        def worker(worker_idx: int) -> None:
            try:
                barrier.wait(timeout=30)
                sessions = [
                    FeedbackSession(
                        rfs,
                        QDConfig(),
                        seed=SEED + worker_idx * 100 + i,
                        session_id=f"w{worker_idx}-s{i}",
                        store=store,
                    )
                    for i in range(n_sessions)
                ]
                mark = _mark_fn(labels)
                for _ in range(n_rounds):  # interleave rounds, not sessions
                    for session in sessions:
                        session.submit(mark(session.display()))
            except Exception as exc:  # pragma: no cover - failure path
                errors.append(exc)

        threads = [
            threading.Thread(target=worker, args=(i,)) for i in range(2)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
        assert errors == []
        ids = store.list_ids()
        assert len(ids) == 2 * n_sessions
        for session_id in ids:
            record = store.get(session_id)
            assert record.round == n_rounds
            # Each record is independently resumable.
            FeedbackSession.restore(rfs, record, config=QDConfig())
        store.close()


# ---------------------------------------------------------------------------
# Staleness fencing and lifecycle errors
# ---------------------------------------------------------------------------
class TestStalenessFencing:
    def _state_after_round(self, rfs, rendered_db) -> SessionState:
        session = FeedbackSession(rfs, QDConfig(), seed=SEED)
        mark = _mark_fn(rendered_db.labels)
        session.submit(mark(session.display()))
        return session.capture()

    def test_structure_version_mismatch_rejected(self, rfs, rendered_db):
        state = self._state_after_round(rfs, rendered_db)
        stale = dataclasses.replace(
            state, structure_version=state.structure_version + 1
        )
        with pytest.raises(StaleSessionError, match="structure version"):
            FeedbackSession.restore(rfs, stale, config=QDConfig())

    def test_config_fingerprint_mismatch_rejected(self, rfs, rendered_db):
        state = self._state_after_round(rfs, rendered_db)
        with pytest.raises(StaleSessionError, match="configuration"):
            FeedbackSession.restore(
                rfs, state, config=QDConfig(display_size=9)
            )

    def test_vanished_node_rejected(self, rfs, rendered_db):
        state = self._state_after_round(rfs, rendered_db)
        ghost = dataclasses.replace(
            state,
            active=tuple(
                dataclasses.replace(sub, node_id=10**9)
                for sub in state.active
            ),
        )
        with pytest.raises(StaleSessionError, match="no longer exists"):
            FeedbackSession.restore(rfs, ghost, config=QDConfig())

    def test_finalized_record_rejected(self, rfs, rendered_db):
        state = self._state_after_round(rfs, rendered_db)
        done = dataclasses.replace(state, finalized=True)
        with pytest.raises(SessionStateError, match="finalized"):
            FeedbackSession.restore(rfs, done, config=QDConfig())

    def test_checkpoint_without_store_rejected(self, rfs):
        session = FeedbackSession(rfs, QDConfig(), seed=SEED)
        with pytest.raises(SessionStateError, match="store"):
            session.checkpoint()


# ---------------------------------------------------------------------------
# Engine lifecycle: open / resume / expire
# ---------------------------------------------------------------------------
class TestEngineLifecycle:
    def test_open_requires_attached_store(self, rfs, rendered_db):
        from repro.core.engine import QueryDecompositionEngine

        engine = QueryDecompositionEngine(rendered_db, rfs, QDConfig())
        with pytest.raises(ConfigurationError, match="attach_session_store"):
            engine.open_session(seed=SEED)

    def test_open_resume_expire_flow(self, rfs, rendered_db, tmp_path):
        from repro.core.engine import QueryDecompositionEngine

        engine = QueryDecompositionEngine(rendered_db, rfs, QDConfig())
        with _store("sqlite", tmp_path) as store:
            engine.attach_session_store(store)
            session = engine.open_session(seed=SEED, session_id="flow")
            # Round-zero record is durable before any feedback.
            assert store.get("flow").round == 0
            mark = _mark_fn(rendered_db.labels)
            session.submit(mark(session.display()))
            resumed = engine.resume_session("flow")
            assert resumed.round == 1
            assert resumed.marked_ids == session.marked_ids
            assert engine.expire_sessions(3600.0) == []
            with pytest.raises(ConfigurationError, match="ttl_s"):
                engine.expire_sessions(-1.0)
            idle = store.get("flow")
            store.put(
                dataclasses.replace(
                    idle, updated_unix=idle.updated_unix - 7200.0
                )
            )
            assert engine.expire_sessions(3600.0) == ["flow"]
            with pytest.raises(SessionNotFoundError):
                engine.resume_session("flow")
            engine.detach_session_store()


# ---------------------------------------------------------------------------
# Submit atomicity (the PR's bugfix)
# ---------------------------------------------------------------------------
class TestSubmitAtomicity:
    def test_rejected_batch_leaves_no_partial_state(self, rfs, rendered_db):
        """A batch with one bad id must not mark the good ones."""
        session = FeedbackSession(rfs, QDConfig(), seed=SEED)
        mark = _mark_fn(rendered_db.labels)
        shown = session.display(screens=SCREENS)
        good = mark(shown)
        assert good, "oracle should mark something on the first screen"
        before_active = session.active_node_ids
        with pytest.raises(SessionStateError, match="not displayed"):
            session.submit(good + [10**9])
        # Nothing moved: no marks recorded, no decomposition happened.
        assert session.marked_ids == []
        assert session.active_node_ids == before_active
        # The round is still open — a corrected batch goes through.
        session.submit(good)
        assert session.marked_ids == sorted(good)

    def test_non_integer_ids_rejected_atomically(self, rfs, rendered_db):
        session = FeedbackSession(rfs, QDConfig(), seed=SEED)
        mark = _mark_fn(rendered_db.labels)
        shown = session.display(screens=SCREENS)
        good = mark(shown)
        with pytest.raises(SessionStateError, match="integers"):
            session.submit(good + ["not-an-id"])
        assert session.marked_ids == []
        session.submit(good)
        assert session.marked_ids == sorted(good)

    def test_resumed_session_keeps_atomicity(self, rfs, rendered_db, tmp_path):
        """The fix survives a checkpoint/resume cycle."""
        with _store("memory", tmp_path) as store:
            session = FeedbackSession(
                rfs, QDConfig(), seed=SEED, session_id="atomic", store=store
            )
            shown = session.display(screens=SCREENS)
            session.checkpoint()
            resumed = FeedbackSession.restore(
                rfs, store.get("atomic"), config=QDConfig(), store=store
            )
            with pytest.raises(SessionStateError, match="not displayed"):
                resumed.submit([10**9])
            resumed.submit(_mark_fn(rendered_db.labels)(shown))
            assert resumed.round == 1


# ---------------------------------------------------------------------------
# Record and screen equivalence with the commit before the one-pass
# checkpoint (ISSUE 20): same stored text, same screens
# ---------------------------------------------------------------------------
#: A ``state_format`` 1 record as commit f821c54 wrote it: the ``rfs``
#: fixture's tree, seed 11, suspended mid-round 2 with a live screen.
PARENT_RECORD = (
    '{"active":[{"marked":[606],"node_id":4,"shown":[592,600,606,61'
    '2]},{"marked":[367],"node_id":24,"shown":[346,352,359,367]},{"'
    'marked":[474],"node_id":28,"shown":[470,474,478,491]},{"marked'
    '":[50],"node_id":32,"shown":[35,39,41,50]},{"marked":[50,367,4'
    '74,606],"node_id":36,"shown":[50,74,126,127,142,152,163,188,19'
    '7,207,227,329,367,382,402,403,434,458,474,478,494,534,574,592,'
    '606,646,682,751,765,782,790,793,902,928,990,1003,1011,1062,109'
    '5,1141,1144,1153]}],"awaiting_feedback":true,"config_fingerpri'
    'nt":"4758d6f7361288ee","created_unix":1790869641.5278964,"disp'
    'lay_owner":{"1011":36,"1095":36,"1153":36,"127":36,"152":36,"1'
    '88":36,"197":36,"207":36,"227":36,"329":36,"346":24,"35":32,"3'
    '52":24,"359":24,"367":24,"39":32,"402":36,"41":32,"458":36,"47'
    '0":28,"474":28,"478":28,"491":28,"50":32,"534":36,"574":36,"59'
    '2":4,"600":4,"606":4,"612":4,"646":36,"74":36,"765":36,"790":3'
    '6,"793":36,"928":36,"990":36},"extra":{},"finalized":false,"ma'
    'rked":[50,367,474,606],"rng_state":{"bit_generator":"PCG64","h'
    'as_uint32":0,"state":{"inc":7937318808080196428804369945471644'
    '491,"state":4545392720925501264191286768729729221},"uinteger":'
    '234797535},"round":2,"session_id":"written-by-parent","state_f'
    'ormat":1,"structure_version":0,"updated_unix":1790869641.52815'
    '6}'
)
#: How f821c54 continued that session without suspending it: submit the
#: screen's last three ids, display one screen, mark by
#: ``_scripted_marks``, finalize 20.
PARENT_NEXT_SCREEN = [
    1144, 1153, 1164, 1167, 1080, 1094, 1095, 1104, 995, 1003, 1007,
    1011, 0, 173, 211, 254, 280, 287, 333, 346, 404, 628, 710, 716, 723,
    833, 852, 941, 975, 1185,
]
#: With the direct-form kernel: 1080 and 1095 are equidistant at
#: float32 (0.44103655), so the lower id leads; the norm expansion
#: scored them 0.4410431 and 0.4410388.
PARENT_FINAL_IDS = [
    50, 46, 367, 366, 1080, 1095, 1082, 0, 16, 474, 477, 606, 598, 995,
    1011, 1005, 1145, 1144, 1153, 1155,
]
PARENT_RANKING_DIGEST = "63d63f3202b5"
#: ``_digest`` of the three screens of seeds 0..49 on f821c54.
PARENT_SCREEN_DIGESTS = """
    a26de0a6f9c6 4e3ff7a2036e 60a436f9f618 0fab6b85729d faee117a54f0
    4c117adadeb8 56dc24f946c3 03460a8dd5f5 012a9efdf65e b819873b1e9a
    80661cfa0b35 a79b9ac9aca1 7d4405c134cb 2aa2671dc1ba cf14947a1592
    a2eaf37fceb9 7dcc3687cc7d 834fd63c8c94 788f25289fcb f73444edb61d
    e89df719a74d a81999b5d949 3ae776279b6c da920fd26068 c81fdd653846
    224c5cb1ac32 bc2795ccba4f 29fc3b849479 9b05dbbae92a 97ab45f8ee20
    c6093c87ee26 4791d955527c 79a9797ce1d9 2ce25dca2b5d 17710ebf1e1d
    7afb7b153eb2 d2dd41ffeb91 561a6e5fdff4 7911357c4b4b f69e38036996
    75d554c392a0 97c707959701 d33053fe90d7 75fd093432f3 e4c12f60c437
    af85ecb9ccf7 4a7d065967fc 2081bed60963 f8906afd4542 e520c85a515a
""".split()
#: Seeds whose dialogue marks nothing and has seen every root
#: representative after two rounds.  Their third screen was empty on
#: f821c54; browsing now starts over at the root.
RESTARTED_SEEDS = (7, 21, 35, 49)


def _scripted_marks(shown, seed):
    return shown[:: 3 + seed % 5][: seed % 7]


def _digest(obj):
    return hashlib.blake2b(
        json.dumps(obj).encode(), digest_size=6
    ).hexdigest()


def _filtered_unseen(sub):
    """What ``SubQuery.unseen_representatives`` used to compute."""
    return [r for r in sub.node.representatives if r not in sub.shown]


def _assert_unseen_consistent(session):
    for sub in session._active.values():
        expected = _filtered_unseen(sub)
        assert sub.has_unseen == bool(expected)
        assert sub.unseen_representatives() == expected


def _marks(shown, n_marks, pick_seed):
    picks = np.random.default_rng(pick_seed).permutation(len(shown))
    return [shown[int(i)] for i in picks[:n_marks]]


#: Random dialogues: (screens, marks, which ones) per round, the
#: session's seed, and the op after which it is suspended and resumed.
_DIALOGUES = dict(
    rounds=st.lists(
        st.tuples(
            st.integers(1, 4),  # screens
            st.integers(0, 6),  # marks
            st.integers(0, 2**16),  # which ones
        ),
        min_size=1,
        max_size=4,
    ),
    seed=st.integers(0, 10_000),
    suspend_at=st.integers(0, 7),
)


#: Ints a record may hold: small ids, ids past any the table has seen
#: (the write stream inserts new images), negative ones and ones past
#: 2**53; 9 / 10 / 100 sort differently as text and as numbers.
_ANY_INT = st.one_of(
    st.sampled_from([0, 9, 10, 99, 100, 1000]),
    st.integers(0, 20_000),
    st.integers(2**40, 2**70),
    st.integers(-(2**70), -1),
)
_ID_TUPLES = st.lists(_ANY_INT, max_size=12).map(tuple)  # any order
_STAMPS = st.one_of(
    st.sampled_from([math.nan, math.inf, -math.inf, -0.0]), st.floats()
)
_JSON_LEAVES = st.one_of(
    st.none(),
    st.booleans(),
    _ANY_INT,
    st.floats(allow_nan=False, allow_infinity=False),
    st.text(max_size=8),
)
_JSON_VALUES = st.recursive(
    _JSON_LEAVES,
    lambda inner: st.one_of(
        st.lists(inner, max_size=3),
        st.dictionaries(st.text(max_size=6), inner, max_size=3),
    ),
    max_leaves=8,
)
_JSON_OBJECTS = st.dictionaries(
    st.text(max_size=6), _JSON_VALUES, max_size=4
).map(key_sorted)
_SESSION_STATES = st.builds(
    SessionState,
    session_id=st.text(max_size=12),
    round=_ANY_INT,
    awaiting_feedback=st.booleans(),
    finalized=st.booleans(),
    active=st.lists(
        st.builds(
            SubQueryState, node_id=_ANY_INT, marked=_ID_TUPLES,
            shown=_ID_TUPLES,
        ),
        max_size=4,
    ).map(tuple),
    marked=_ID_TUPLES,
    display_owner=st.dictionaries(_ANY_INT, _ANY_INT, max_size=24),
    # Records keep these key-sorted (what capture and decode build).
    rng_state=_JSON_OBJECTS,
    config_fingerprint=st.text(max_size=16),
    structure_version=_ANY_INT,
    created_unix=_STAMPS,
    updated_unix=_STAMPS,
    extra=_JSON_OBJECTS,
)


def _nan_free(state):
    """``state`` with NaN stamps made comparable (NaN != NaN)."""
    return dataclasses.replace(
        state,
        created_unix=str(state.created_unix),
        updated_unix=str(state.updated_unix),
    )


class TestRecordEquivalence:
    def test_screens_equal_the_parent_commits(self, rfs):
        digests = []
        for seed in range(50):
            session = FeedbackSession(rfs, QDConfig(), seed=seed)
            screens = []
            for _ in range(3):
                shown = session.display(screens=1 + seed % 2)
                screens.append(shown)
                session.submit(_scripted_marks(shown, seed))
                _assert_unseen_consistent(session)
            if seed in RESTARTED_SEEDS:
                root_reps = sorted(rfs.root.representatives)
                assert not session.marked_ids
                assert sorted(screens[0] + screens[1]) == root_reps
                assert screens[2] and set(screens[2]) <= set(root_reps)
                screens[2] = []  # what the parent commits drew
            digests.append(_digest(screens))
        assert digests == PARENT_SCREEN_DIGESTS

    def test_parent_written_record_resumes_bit_identically(self, rfs):
        state = decode_state(PARENT_RECORD)
        assert state.awaiting_feedback and state.display_owner
        # Our encoder writes that state as the very same text.
        assert encode_state(state) == PARENT_RECORD
        session = FeedbackSession.restore(rfs, state, config=QDConfig())
        _assert_unseen_consistent(session)
        screen = sorted(state.display_owner, key=_screen_order(state))
        session.submit(screen[-3:])
        shown = session.display(screens=1)
        assert shown == PARENT_NEXT_SCREEN
        session.submit(_scripted_marks(shown, 11))
        result = session.finalize(20)
        ranking = [
            [g.leaf_node_id, [[i.item_id, i.score] for i in g.items]]
            for g in result.groups
        ]
        final_ids = [i for _, items in ranking for i, _ in items]
        assert final_ids == PARENT_FINAL_IDS
        assert _digest(ranking) == PARENT_RANKING_DIGEST

    def test_submit_clears_the_spent_screen(self, rfs):
        store = InMemorySessionStore()
        session = FeedbackSession(rfs, QDConfig(), seed=SEED, store=store)
        shown = session.display(screens=SCREENS)
        session.checkpoint()
        mid_round = json.loads(store.read_payload(session.session_id))
        assert sorted(map(int, mid_round["display_owner"])) == sorted(shown)
        session.submit(shown[:3])
        after = json.loads(store.read_payload(session.session_id))
        assert after["display_owner"] == {}
        assert after["state_format"] == STATE_FORMAT_VERSION == 1
        # Apart from the emptied screen (and the stamp) it is the
        # record the parent wrote: nothing else reads the map.
        assert len(store.read_payload(session.session_id)) < len(
            json.dumps(mid_round, separators=(",", ":"))
        )
        with pytest.raises(SessionStateError, match="display"):
            session.submit(shown[:1])

    @given(state=_SESSION_STATES)
    @settings(max_examples=300, deadline=None)
    def test_renderer_writes_what_the_json_encoder_writes(self, state):
        """Any record, not only the ones a dialogue makes: the one-pass
        renderer's text is the JSON encoder's over ``to_dict``, byte
        for byte, and decodes back to the record."""
        text = encode_state(state)
        assert text == json.dumps(state.to_dict(), separators=(",", ":"))
        assert _nan_free(decode_state(text)) == _nan_free(state)
        assert encode_state(decode_state(text)) == text

    def test_renderer_tables_start_over_under_racing_threads(
        self, rfs, monkeypatch
    ):
        """The id tables are shared, lock-free and cleared when full:
        threads racing to fill and clear them still write exact text."""
        monkeypatch.setattr(store_base, "_TABLE_LIMIT", 16)
        states = []
        for seed in range(6):
            session = FeedbackSession(rfs, QDConfig(), seed=seed)
            session.display(screens=SCREENS)
            states.append(session.capture())
        assert all(len(state.display_owner) > 16 for state in states)
        expected = [
            json.dumps(state.to_dict(), separators=(",", ":"))
            for state in states
        ]
        wrong = []

        def encode_all():
            for _ in range(30):
                for state, text in zip(states, expected):
                    if encode_state(state) != text:
                        wrong.append(state.session_id)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [
                threading.Thread(target=encode_all) for _ in range(6)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert wrong == []

    @given(**_DIALOGUES)
    @settings(max_examples=40, deadline=None)
    def test_encoded_text_is_canonical_and_round_trips(
        self, rfs, rounds, seed, suspend_at
    ):
        """Random dialogues, suspended after any op: the text is what
        ``sort_keys`` would have produced, decodes to the captured
        record, and the resumed session shows the twin's screens."""
        twin = FeedbackSession(rfs, QDConfig(), seed=seed)
        session = FeedbackSession(rfs, QDConfig(), seed=seed)
        n_ops = 0

        def after_op():
            nonlocal session, n_ops
            state = session.capture()
            text = encode_state(state)
            assert text == json.dumps(
                json.loads(text), sort_keys=True, separators=(",", ":")
            )
            assert decode_state(text) == state
            assert encode_state(decode_state(text)) == text
            _assert_unseen_consistent(session)
            if n_ops == suspend_at:
                session = FeedbackSession.restore(
                    rfs, decode_state(text), config=QDConfig()
                )
                _assert_unseen_consistent(session)
            n_ops += 1

        for screens, n_marks, pick_seed in rounds:
            shown = session.display(screens=screens)
            assert shown == twin.display(screens=screens)
            after_op()
            picks = np.random.default_rng(pick_seed).permutation(
                len(shown)
            )[:n_marks]
            marks = [shown[int(i)] for i in picks]
            session.submit(marks)
            twin.submit(marks)
            after_op()
            assert session.active_node_ids == twin.active_node_ids


class TestMemoryRecordParity:
    """The in-memory store keeps the captured record, not its text; the
    text it renders is the one a text backend stores."""

    @given(**_DIALOGUES)
    @settings(max_examples=25, deadline=None)
    def test_rendered_text_equals_stored_text_after_every_op(
        self, rfs, tmp_path_factory, rounds, seed, suspend_at
    ):
        """The dialogues of ``test_encoded_text_is_canonical_and_round_
        trips``: after every op, the memory store's ``read_payload``,
        the text SQLite stores and ``encode_state(capture())`` are
        byte-identical."""
        memory = InMemorySessionStore()
        sid = "texts"
        session = FeedbackSession(
            rfs, QDConfig(), seed=seed, session_id=sid, store=memory
        )
        n_ops = 0
        path = tmp_path_factory.mktemp("texts") / "sessions.db"
        with SQLiteSessionStore(path) as sqlite:

            def after_op():
                nonlocal session, n_ops
                record = session.checkpoint()
                assert memory.read_record(sid) is record
                assert sqlite.put(record) == sqlite.read_payload(sid)
                fresh = dataclasses.replace(
                    session.capture(), updated_unix=record.updated_unix
                )
                assert (
                    memory.read_payload(sid)
                    == sqlite.read_payload(sid)
                    == encode_state(fresh)
                )
                if n_ops == suspend_at:
                    session = FeedbackSession.restore(
                        rfs, memory.get(sid), store=memory
                    )
                n_ops += 1

            for screens, n_marks, pick_seed in rounds:
                shown = session.display(screens=screens)
                after_op()
                session.submit(_marks(shown, n_marks, pick_seed))
                after_op()


# ---------------------------------------------------------------------------
# Any numpy bit generator, any backend; capture shares unchanged tuples
# ---------------------------------------------------------------------------
BIT_GENERATORS = ["PCG64", "PCG64DXSM", "MT19937", "Philox", "SFC64"]


def _generator(name):
    return np.random.Generator(getattr(np.random, name)(SEED))


class TestBitGenerators:
    @pytest.mark.parametrize("backend", SESSION_STORE_KINDS)
    @pytest.mark.parametrize("name", BIT_GENERATORS)
    def test_suspend_and_resume_on_any_bit_generator(
        self, rfs, rendered_db, backend, name, tmp_path
    ):
        """MT19937, Philox and SFC64 states hold arrays: the record keeps
        them as lists, and the session resumes bit-identically."""
        config = QDConfig()
        mark = _mark_fn(rendered_db.labels)
        twin = FeedbackSession(rfs, config, seed=_generator(name))
        with _store(backend, tmp_path) as store:
            session = FeedbackSession(
                rfs, config, seed=_generator(name), session_id="bitgen",
                store=store,
            )
            for _ in range(ROUNDS):
                shown = session.display(screens=SCREENS)
                assert shown == twin.display(screens=SCREENS)
                session.checkpoint()
                json.loads(store.read_payload("bitgen"))
                session = FeedbackSession.restore(
                    rfs, store.get("bitgen"), config=config, store=store
                )
                session.submit(mark(shown))
                twin.submit(mark(shown))
                session = FeedbackSession.restore(
                    rfs, store.get("bitgen"), config=config, store=store
                )
            assert store.get("bitgen").rng_state["bit_generator"] == name
            assert _signature(session.finalize(K)) == _signature(
                twin.finalize(K)
            )


class TestCaptureSharing:
    def test_records_stay_and_unchanged_branches_share_tuples(
        self, rfs, rendered_db
    ):
        session = FeedbackSession(rfs, QDConfig(), seed=SEED)
        mark = _mark_fn(rendered_db.labels)
        captured = []

        def capture():
            state = session.capture()
            captured.append((state, encode_state(state)))
            return state

        shown = session.display(screens=SCREENS)
        before = capture()
        # Nothing grew: the very same branch records come back.
        assert all(
            a is b for a, b in zip(capture().active, before.active)
        )
        session.submit(mark(shown))
        after = capture()
        earlier = {sub.node_id: sub for sub in before.active}
        kept = [sub for sub in after.active if sub.node_id in earlier]
        assert kept, "no branch survived the submit"
        for sub in kept:
            # Marks grew, nothing was shown: a new record over the
            # very tuple the last capture made.
            assert sub.shown is earlier[sub.node_id].shown
            assert sub.marked != earlier[sub.node_id].marked
        session.display(screens=SCREENS)
        capture()
        for state, text in captured:
            assert encode_state(state) == text

    def test_restored_session_captures_its_record(self, rfs, rendered_db):
        session = FeedbackSession(rfs, QDConfig(), seed=SEED)
        mark = _mark_fn(rendered_db.labels)
        session.submit(mark(session.display(screens=SCREENS)))
        session.display(screens=SCREENS)
        for state in (session.capture(), decode_state(
            encode_state(session.capture())
        )):
            restored = FeedbackSession.restore(rfs, state)
            again = restored.capture()
            assert dataclasses.replace(
                again, updated_unix=state.updated_unix
            ) == state


def _screen_order(state):
    """Sort key restoring a record's screen to display order.

    A screen lists its nodes ascending and each node's ids ascending.
    """
    return lambda image_id: (state.display_owner[image_id], image_id)


# ---------------------------------------------------------------------------
# SQLite connections: a free-list per process, not one per thread
# ---------------------------------------------------------------------------
def _open_fds_under(path) -> int:
    prefix = str(path)
    count = 0
    for fd in os.listdir("/proc/self/fd"):
        try:
            count += os.readlink(f"/proc/self/fd/{fd}").startswith(prefix)
        except OSError:
            pass  # closed while listing
    return count


class TestSQLiteConnections:
    @pytest.fixture()
    def state(self, rfs):
        session = FeedbackSession(rfs, QDConfig(), seed=SEED)
        session.submit(session.display()[:2])
        return session.capture()

    @pytest.mark.skipif(
        not os.path.isdir("/proc/self/fd"), reason="needs /proc"
    )
    def test_short_lived_threads_do_not_leak_connections(
        self, state, tmp_path
    ):
        path = tmp_path / "leak.db"
        with SQLiteSessionStore(path) as store:
            store.put(state)
            one_connection = _open_fds_under(path)
            assert len(store._conns) == 1 and one_connection >= 1
            failures = []

            def op(n):
                try:
                    mine = dataclasses.replace(state, session_id=f"t{n}")
                    text = store.put(mine)
                    assert store.read_payload(mine.session_id) == text
                except Exception as exc:  # pragma: no cover - failure path
                    failures.append(exc)

            for n in range(200):
                thread = threading.Thread(target=op, args=(n,))
                thread.start()
                thread.join(30)
            assert failures == []
            assert len(store) == 201
            assert len(store._conns) <= 2
            assert _open_fds_under(path) <= 2 * one_connection

    def test_concurrent_threads_each_get_a_connection(self, state, tmp_path):
        with SQLiteSessionStore(tmp_path / "busy.db") as store:
            barrier = threading.Barrier(8)
            failures = []

            def worker(n):
                try:
                    barrier.wait(timeout=30)
                    for i in range(25):
                        mine = dataclasses.replace(
                            state, session_id=f"w{n}-{i}"
                        )
                        text = store.put(mine)
                        assert store.read_payload(mine.session_id) == text
                        assert store.get(mine.session_id) == mine
                except Exception as exc:  # pragma: no cover - failure path
                    failures.append(exc)

            threads = [
                threading.Thread(target=worker, args=(n,)) for n in range(8)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(120)
            assert failures == []
            assert len(store) == 8 * 25
            # as many as were ever in use at once, all idle again
            assert 1 <= len(store._conns) <= 8
            assert sorted(map(id, store._free)) == sorted(
                map(id, store._conns)
            )

    def test_sweep_keeps_one_connection_for_its_transaction(
        self, state, tmp_path
    ):
        with SQLiteSessionStore(tmp_path / "sweep.db") as store:
            store.put(dataclasses.replace(state, updated_unix=1.0))
            log = []

            class Recording:
                def __init__(self, conn):
                    self.conn = conn

                def execute(self, sql, *args):
                    log.append(sql.split()[0])
                    return self.conn.execute(sql, *args)

            acquire, release = store._acquire, store._release

            def recording_acquire():
                log.append("acquire")
                return Recording(acquire())

            def recording_release(conn):
                log.append("release")
                assert not conn.conn.in_transaction
                release(conn.conn)

            store._acquire = recording_acquire
            store._release = recording_release
            assert store.sweep_expired(10.0, now=100.0) == [state.session_id]
            assert log == [
                "acquire", "BEGIN", "SELECT", "DELETE", "COMMIT", "release"
            ]
            del store._acquire, store._release
            assert len(store) == 0


# ---------------------------------------------------------------------------
# SQLite schema: one B-tree per checkpoint
# ---------------------------------------------------------------------------
#: The schema ``sessions.db`` files were written with while the table
#: also carried an index on the stamp every checkpoint rewrites.
PARENT_SCHEMA = """
CREATE TABLE IF NOT EXISTS qd_sessions (
    session_id   TEXT PRIMARY KEY,
    updated_unix REAL NOT NULL,
    payload      TEXT NOT NULL
);
CREATE INDEX IF NOT EXISTS qd_sessions_updated
    ON qd_sessions (updated_unix);
"""


def _indexes(path):
    with contextlib.closing(sqlite3.connect(path)) as conn:
        return sorted(
            row[0]
            for row in conn.execute(
                "SELECT name FROM sqlite_master WHERE type = 'index'"
                " AND sql IS NOT NULL"
            )
        )


class TestSQLiteSchema:
    def test_parent_database_drops_the_index_and_keeps_its_records(
        self, rfs, rendered_db, tmp_path
    ):
        path = tmp_path / "sessions.db"
        mark = _mark_fn(rendered_db.labels)
        now = 1_790_000_000.0
        texts = {}
        with contextlib.closing(
            sqlite3.connect(path, isolation_level=None)
        ) as conn:
            conn.execute("PRAGMA journal_mode=WAL")
            conn.executescript(PARENT_SCHEMA)
            for n in range(6):
                session = FeedbackSession(
                    rfs, QDConfig(), seed=SEED + n, session_id=f"s{n}"
                )
                shown = session.display(screens=SCREENS)
                if n % 2:
                    session.submit(mark(shown))
                stamp = now - 7200.0 * (n % 3 == 0)
                state = dataclasses.replace(
                    session.capture(), updated_unix=stamp
                )
                texts[state.session_id] = encode_state(state)
                conn.execute(
                    "INSERT INTO qd_sessions VALUES (?, ?, ?)",
                    (state.session_id, stamp, texts[state.session_id]),
                )
        assert _indexes(path) == ["qd_sessions_updated"]
        with SQLiteSessionStore(path) as store:
            assert _indexes(path) == []
            for sid, text in texts.items():
                assert store.read_record(sid) == text
                state = store.get(sid)
                assert encode_state(state) == text
                resumed = FeedbackSession.restore(rfs, state)
                assert encode_state(
                    dataclasses.replace(
                        resumed.capture(), updated_unix=state.updated_unix
                    )
                ) == text
            assert store.sweep_expired(3600.0, now=now) == ["s0", "s3"]
            assert store.list_ids() == ["s1", "s2", "s4", "s5"]
        # A second open finds nothing to drop.
        with SQLiteSessionStore(path) as store:
            assert _indexes(path) == []
            assert len(store) == 4
