"""Cross-session subquery result cache with versioned invalidation.

Under a many-user workload the final-round localized k-NN subqueries are
highly repetitive: popular semantic regions (the same RFS leaf, the same
relevant-representative sets) are hit by many independent sessions, yet
each session recomputes the same block scans from scratch.  The
:class:`SubqueryResultCache` eliminates that redundancy: a thread-safe,
byte-capped LRU keyed by a canonical digest of everything the subquery's
answer depends on —

* the RFS node the marks grouped into,
* the query-point matrix (actual bytes and dtype, so a float32
  centroid and a float64 one can never alias),
* the requested result count, and
* the boundary-expansion threshold.

Every entry is stamped with the **RFS structure version**
(:attr:`repro.index.rfs.RFSStructure.structure_version`) current at
write time.  Compaction swaps and store attach/detach bump the
version, so stale entries are rejected at *read* time — no global flush,
no invalidation fan-out: an entry written against an old tree simply
stops matching and is dropped on its next lookup (or evicted by LRU
pressure, whichever comes first).

A hit returns the subquery's search node, centroid, and ranked list —
the boundary expansion and the block scan are skipped entirely.  Because
every executor path funnels through the same computation, a cached entry
is interchangeable between the serial, thread, and process executors
(process-pool caveat: workers run against a forked snapshot of the
cache, so their insertions stay in the child — hits still work for
entries warm at fork time).

The generational mutation engine adds a *surgical* third path next to
version stamping and LRU pressure: :meth:`SubqueryResultCache.
invalidate_nodes` drops exactly the entries whose **search node** is on
the root path of a mutated leaf (a reverse index keyed on
``search_node_id`` makes that O(affected entries)).  Delta-segment
mutations do not bump the structure version — cached entries hold
tombstone-filtered *main-store* rankings and the live delta rows are
merged after the cache consult — so inserts invalidate nothing at all,
and removals cost only the handful of entries that could change.  A
scan that raced a removal must not re-publish what the removal just
evicted: :func:`scan_and_publish` — the one way a scan result enters a
cache, whoever scans — reads :meth:`SubqueryResultCache.
invalidation_epoch` before it scans and hands it to ``put``, which
declines under the cache lock if an invalidation ran in between.

Metrics: ``qd_cache_requests_total{outcome=...}`` /
``qd_cache_evictions_total{reason="version"|"capacity"|"mutation"}``
counters and the ``qd_cache_bytes`` gauge mirror the ``stats`` dict.
"""

from __future__ import annotations

import hashlib
import struct
import threading
from collections import OrderedDict
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple

import numpy as np

from repro.errors import ConfigurationError
from repro.obs import get_metrics

#: Fixed per-entry bookkeeping charge (key, dict slot, dataclass) added
#: to the measured payload size when accounting against the byte cap.
ENTRY_OVERHEAD_BYTES = 256

#: Bytes charged per ``(score, id)`` pair of a cached ranked list (two
#: boxed numbers plus the tuple holding them).
RANKED_PAIR_BYTES = 88


def subquery_cache_key(
    node_id: int,
    query_points: np.ndarray,
    requested: int,
    boundary_threshold: float,
) -> str:
    """Canonical digest of one localized subquery.

    ``query_points`` is digested as raw bytes together with its shape and
    dtype, so the same points at float32 and at float64 produce
    *different* keys (their distances differ in the last bits, so their
    results must too).
    ``requested`` is the uncapped fetch size (quota + over-fetch); the
    cap against the search-node size is deterministic given the
    structure version, so it does not belong in the key.  Which store
    the scan read is not in the key either: every store holds exact
    float32 rows, and attaching another one bumps the structure version
    each entry is stamped with.
    """
    points = np.ascontiguousarray(query_points)
    digest = hashlib.blake2b(digest_size=20)
    digest.update(
        struct.pack("<qqqd", int(node_id), int(requested),
                    points.shape[0], float(boundary_threshold))
    )
    digest.update(str(points.dtype).encode())
    digest.update(struct.pack("<q", points.shape[1] if points.ndim > 1 else 1))
    digest.update(points.tobytes())
    return digest.hexdigest()


@dataclass(frozen=True)
class CachedSubquery:
    """One cached subquery answer.

    ``ranked`` is stored as an immutable tuple; readers receive a fresh
    list copy so downstream merge code can never corrupt the cache.
    """

    search_node_id: int
    centroid: np.ndarray
    ranked: Tuple[Tuple[float, int], ...]
    version: int

    @property
    def nbytes(self) -> int:
        """Approximate memory charged against the cache's byte cap."""
        return (
            ENTRY_OVERHEAD_BYTES
            + int(self.centroid.nbytes)
            + RANKED_PAIR_BYTES * len(self.ranked)
        )


class SubqueryResultCache:
    """Thread-safe byte-capped LRU over :class:`CachedSubquery` entries.

    Parameters
    ----------
    capacity_bytes:
        Total payload budget.  Inserting past it evicts least-recently
        used entries; an entry larger than the whole budget is simply
        not cached.

    Attributes
    ----------
    stats:
        ``hits`` / ``misses`` / ``evictions`` / ``stale_evictions`` /
        ``mutation_evictions`` / ``inserts`` counters plus the live
        ``bytes`` and ``entries`` occupancy.  ``stale_evictions``
        (entries dropped because their structure version no longer
        matched) and ``mutation_evictions`` (entries dropped by
        per-node invalidation) are also included in ``evictions``.
    """

    def __init__(self, capacity_bytes: int) -> None:
        if capacity_bytes <= 0:
            raise ConfigurationError(
                f"cache capacity must be positive, got {capacity_bytes}"
            )
        self.capacity_bytes = int(capacity_bytes)
        self._entries: "OrderedDict[str, CachedSubquery]" = OrderedDict()
        # Reverse index search_node_id -> cache keys, so per-node
        # invalidation after a mutation touches only affected entries.
        self._by_node: Dict[int, set] = {}
        # Count of invalidate_nodes calls; see invalidation_epoch().
        self._invalidations = 0
        self._lock = threading.Lock()
        self.stats: Dict[str, int] = {
            "hits": 0,
            "misses": 0,
            "evictions": 0,
            "stale_evictions": 0,
            "mutation_evictions": 0,
            "inserts": 0,
            "bytes": 0,
            "entries": 0,
        }

    # -- reverse-index maintenance (callers hold self._lock) -----------
    def _index_add(self, key: str, entry: CachedSubquery) -> None:
        self._by_node.setdefault(entry.search_node_id, set()).add(key)

    def _index_drop(self, key: str, entry: CachedSubquery) -> None:
        keys = self._by_node.get(entry.search_node_id)
        if keys is not None:
            keys.discard(key)
            if not keys:
                del self._by_node[entry.search_node_id]

    # ------------------------------------------------------------------
    def get(self, key: str, version: int) -> Optional[CachedSubquery]:
        """Look up ``key``; entries from another structure version miss.

        A version mismatch drops the entry immediately (it can never
        become valid again — versions only move forward) and counts as
        both a miss and a stale eviction.
        """
        metrics = get_metrics()
        with self._lock:
            entry = self._entries.get(key)
            if entry is not None and entry.version != version:
                del self._entries[key]
                self._index_drop(key, entry)
                self.stats["bytes"] -= entry.nbytes
                self.stats["entries"] -= 1
                self.stats["evictions"] += 1
                self.stats["stale_evictions"] += 1
                entry = None
                metrics.counter(
                    "qd_cache_evictions_total",
                    "cache entries dropped",
                    labels={"reason": "version"},
                ).inc()
            if entry is None:
                self.stats["misses"] += 1
                metrics.counter(
                    "qd_cache_requests_total",
                    "subquery cache lookups",
                    labels={"outcome": "miss"},
                ).inc()
                self._set_bytes_gauge(metrics)
                return None
            self._entries.move_to_end(key)
            self.stats["hits"] += 1
            metrics.counter(
                "qd_cache_requests_total",
                "subquery cache lookups",
                labels={"outcome": "hit"},
            ).inc()
            return entry

    def put(
        self,
        key: str,
        version: int,
        search_node_id: int,
        centroid: np.ndarray,
        ranked: List[Tuple[float, int]],
        *,
        epoch: Optional[int] = None,
    ) -> None:
        """Insert (or refresh) one subquery answer at ``version``.

        ``epoch`` is the :meth:`invalidation_epoch` the caller read
        *before* computing ``ranked``.  If :meth:`invalidate_nodes` ran
        since, the ranking may predate a removal whose eviction already
        happened — publishing it would serve the removed id until the
        next compaction — so the put is dropped.
        """
        frozen = np.array(centroid, dtype=np.float64, copy=True)
        frozen.setflags(write=False)
        entry = CachedSubquery(
            search_node_id=int(search_node_id),
            centroid=frozen,
            ranked=tuple(
                (float(score), int(image_id)) for score, image_id in ranked
            ),
            version=int(version),
        )
        if entry.nbytes > self.capacity_bytes:
            return  # would evict the whole cache for one oversized entry
        metrics = get_metrics()
        with self._lock:
            if epoch is not None and epoch != self._invalidations:
                return
            held = self._entries.pop(key, None)
            if held is not None:
                self._index_drop(key, held)
                self.stats["bytes"] -= held.nbytes
                self.stats["entries"] -= 1
            self._entries[key] = entry
            self._index_add(key, entry)
            self.stats["bytes"] += entry.nbytes
            self.stats["entries"] += 1
            self.stats["inserts"] += 1
            evicted = 0
            while self.stats["bytes"] > self.capacity_bytes:
                victim_key, victim = self._entries.popitem(last=False)
                self._index_drop(victim_key, victim)
                self.stats["bytes"] -= victim.nbytes
                self.stats["entries"] -= 1
                self.stats["evictions"] += 1
                evicted += 1
            if evicted:
                metrics.counter(
                    "qd_cache_evictions_total",
                    "cache entries dropped",
                    labels={"reason": "capacity"},
                ).inc(evicted)
            self._set_bytes_gauge(metrics)

    def _set_bytes_gauge(self, metrics) -> None:
        metrics.gauge(
            "qd_cache_bytes", "bytes held by the subquery result cache"
        ).set(float(self.stats["bytes"]))

    def invalidation_epoch(self) -> int:
        """How many :meth:`invalidate_nodes` calls have completed.

        Read it before a scan whose result will be ``put``; see there.
        """
        with self._lock:
            return self._invalidations

    def invalidate_nodes(self, node_ids) -> int:
        """Drop every entry whose search node is in ``node_ids``.

        The per-node invalidation path behind generational mutations: a
        removal changes one leaf's visible rows, so exactly the cached
        subqueries whose search node lies on that leaf's root path can
        change — and only those are evicted (reason ``"mutation"``).
        Returns the number of entries dropped.
        """
        dropped = 0
        metrics = get_metrics()
        with self._lock:
            self._invalidations += 1
            for node_id in node_ids:
                keys = self._by_node.pop(int(node_id), None)
                if not keys:
                    continue
                for key in keys:
                    entry = self._entries.pop(key, None)
                    if entry is None:
                        continue
                    self.stats["bytes"] -= entry.nbytes
                    self.stats["entries"] -= 1
                    self.stats["evictions"] += 1
                    self.stats["mutation_evictions"] += 1
                    dropped += 1
            if dropped:
                metrics.counter(
                    "qd_cache_evictions_total",
                    "cache entries dropped",
                    labels={"reason": "mutation"},
                ).inc(dropped)
                self._set_bytes_gauge(metrics)
        return dropped

    # ------------------------------------------------------------------
    def clear(self) -> None:
        """Drop every entry (occupancy stats reset, counters kept)."""
        with self._lock:
            self._entries.clear()
            self._by_node.clear()
            self.stats["bytes"] = 0
            self.stats["entries"] = 0

    def snapshot(self) -> Dict[str, int]:
        """Point-in-time copy of ``stats`` (safe for delta arithmetic)."""
        with self._lock:
            return dict(self.stats)

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"SubqueryResultCache(entries={self.stats['entries']}, "
            f"bytes={self.stats['bytes']}/{self.capacity_bytes})"
        )

    # ------------------------------------------------------------------
    # Pickling: a forked/pickled copy gets a fresh lock (the cache rides
    # inside an RFSStructure that fork-based workers inherit).
    # ------------------------------------------------------------------
    def __getstate__(self) -> Dict[str, Any]:
        with self._lock:
            state = self.__dict__.copy()
            state["_entries"] = OrderedDict(self._entries)
            state["_by_node"] = {
                node: set(keys) for node, keys in self._by_node.items()
            }
            state["stats"] = dict(self.stats)
        del state["_lock"]
        return state

    def __setstate__(self, state: Dict[str, Any]) -> None:
        self.__dict__.update(state)
        self.__dict__["_lock"] = threading.Lock()


def scan_and_publish(
    cache: SubqueryResultCache,
    key: str,
    version: int,
    rfs: Any,
    node: Any,
    query: np.ndarray,
    k: int,
) -> List[Tuple[float, int]]:
    """Scan ``node`` main-only and publish the ranking under ``key``.

    How a scan result gets into a cache, for every caller that missed
    (the subquery funnel, a shard's own cache): read the invalidation
    epoch, scan with ``include_delta=False`` — the tombstone-filtered
    ranking of the unchanged store blocks, which inserts cannot change
    — and ``put`` it with that epoch, so a removal acknowledged while
    the scan ran keeps the pre-removal ranking out.  Returns the
    main-only ranking; merging live delta rows is the caller's next
    step, as after a hit.
    """
    epoch = cache.invalidation_epoch()
    ranked = rfs.localized_knn(node, query, k, include_delta=False)
    cache.put(key, version, node.node_id, query, ranked, epoch=epoch)
    return ranked
