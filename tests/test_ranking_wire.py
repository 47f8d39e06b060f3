"""Finalize replies on the wire, and rankings shared through the cache.

A finalize reply is encoded from a group's ``item_ids.tolist()`` and
``scores.tolist()`` — the same Python ints and floats the tuple-based
ranking carried — so the reply text of a seeded dialogue is pinned here
to the digest the tuple-based encoding produced, for both session
stores.  A cached ranking is one read-only object every reader shares:
a write into it raises, and no session's finalize changes what another
one reads.
"""

from __future__ import annotations

import hashlib
import json
import socket

import pytest

from repro.config import CacheConfig, QDConfig, RFSConfig, ServeConfig
from repro.core.engine import QueryDecompositionEngine
from repro.datasets.build import build_synthetic_database
from repro.serve import QDServer, serve_tcp
from repro.sessionstore import InMemorySessionStore, SQLiteSessionStore

SEED = 1129
#: blake2b (16-byte) of the finalize reply lines of ``_dialogues``, as
#: the tuple-based ranking and encoder wrote them, with scores from the
#: direct-form kernel ``√Σ(x − q)²`` (the same ids in the same groups
#: and order as under the norm expansion; only the scores' last bits
#: moved).  k = 300 over 400 images, leaves of at most 40: the top-up
#: and promotion passes run.
FINALIZE_DIGEST = "415935a09c6621701ec5bcb0fc25c551"


@pytest.fixture(scope="module")
def database():
    return build_synthetic_database(400, n_categories=30, seed=SEED)


def _engine(database, **kwargs):
    return QueryDecompositionEngine.build(
        database,
        RFSConfig(node_max_entries=40, leaf_subclusters=3),
        QDConfig(),
        seed=SEED,
        **kwargs,
    )


def _call(stream, **payload) -> bytes:
    stream.write(json.dumps(payload).encode() + b"\n")
    stream.flush()
    return stream.readline()


def _dialogues(server, labels) -> bytes:
    """Three scripted dialogues over TCP; their raw finalize replies."""
    replies = b""
    with socket.create_connection(
        server.server_address[:2], timeout=30.0
    ) as sock, sock.makefile("rwb") as stream:
        for seed in (1, 2, 3):
            sid = json.loads(_call(stream, op="open", seed=seed))["value"]
            for _ in range(2):
                shown = json.loads(
                    _call(stream, op="display", session_id=sid)
                )["value"]
                marked = [i for i in shown if labels[i] in (3, 5, seed)]
                _call(
                    stream, op="submit", session_id=sid,
                    relevant_ids=marked or shown[:1],
                )
            replies += _call(stream, op="finalize", session_id=sid, k=300)
    return replies


@pytest.mark.parametrize("kind", ["memory", "sqlite"])
def test_finalize_reply_bytes_are_pinned(database, tmp_path, kind):
    store = (
        InMemorySessionStore()
        if kind == "memory"
        else SQLiteSessionStore(tmp_path / "sessions.db")
    )
    with _engine(database) as engine:
        engine.attach_session_store(store)
        server = serve_tcp(
            QDServer(engine, ServeConfig(workers=1)), "127.0.0.1", 0,
            background=True,
        )
        try:
            replies = _dialogues(server, database.labels.tolist())
        finally:
            server.close()
    assert replies.count(b'"status": "ok"') == 3
    digest = hashlib.blake2b(replies, digest_size=16).hexdigest()
    assert digest == FINALIZE_DIGEST


class TestSharedCachedRankings:
    @pytest.fixture()
    def engine(self, database):
        with _engine(
            database, cache=CacheConfig(enabled=True, capacity_mb=8)
        ) as engine:
            yield engine

    @staticmethod
    def _finalize(engine, labels, k=40):
        """One seeded two-round session, finalized."""
        session = engine.new_session(seed=5)
        for _ in range(2):
            shown = session.display()
            session.submit([i for i in shown if labels[i] == 3] or shown[:1])
        return session.finalize(k)

    def test_cached_ranking_arrays_are_read_only(self, engine, database):
        self._finalize(engine, database.labels.tolist())
        cache = engine.result_cache
        version = engine.rfs.structure_version
        entries = [cache.get(key, version) for key in list(cache._entries)]
        assert entries
        for entry in entries:
            with pytest.raises(ValueError):
                entry.ranked.item_ids[0] = -1
            with pytest.raises(ValueError):
                entry.ranked.scores[0] = -1.0
            with pytest.raises(ValueError):
                entry.centroid[0] = -1.0

    def test_two_sessions_share_one_entry(self, engine, database):
        labels = database.labels.tolist()
        first = self._finalize(engine, labels)
        hits = engine.result_cache.snapshot()["hits"]
        second = self._finalize(engine, labels)
        assert engine.result_cache.snapshot()["hits"] > hits
        # A third session finalized after both reads the same entries:
        # neither earlier finalize changed what the cache hands out.
        third = self._finalize(engine, labels)
        assert len(first.groups) == len(second.groups) == len(third.groups)
        for a, b, c in zip(first.groups, second.groups, third.groups):
            assert a.items == b.items == c.items
            assert a.ranking_score == b.ranking_score == c.ranking_score
