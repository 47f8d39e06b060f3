"""Simulated disk-page accounting.

The paper's §5.2.2 argues the QD/RFS approach is I/O-efficient: relevance
feedback touches one tree node per marked representative image, and each
localized k-NN usually reads a single leaf.  We model every tree node as
one disk page and count page reads, with an optional LRU buffer pool so
repeated reads of a hot node (e.g. the root) can be served from memory —
mirroring how a real DBMS would behave.

The counter is shared by every layer of one engine and by every thread
that serves it (the server's request slots) — so all mutation happens
under a lock.  The model counts
accesses; it charges no time.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Dict


@dataclass
class DiskAccessCounter:
    """Counts simulated page reads, optionally through an LRU buffer.

    Thread-safe: counters, the per-category breakdowns, and the LRU
    buffer all mutate under one internal lock, so concurrent requests
    never lose an update.

    Parameters
    ----------
    buffer_pages:
        Size of the LRU buffer pool in pages.  ``0`` disables buffering,
        so every access is a physical read (the paper's conservative
        accounting).

    Attributes
    ----------
    physical_reads:
        Page reads that missed the buffer (or all reads when unbuffered).
    logical_reads:
        Total page accesses, hits included.
    per_category:
        Physical (buffer-missing) reads per category label.
    per_category_logical:
        All accesses per category label, buffer hits included.  Under a
        warm buffer the physical breakdown undercounts how often a phase
        *touches* pages; per-phase analyses should prefer this view.
    bytes_read:
        Feature bytes charged to physical reads.  Callers that know a
        page's payload size (the leaf-contiguous feature store does)
        pass it via ``access(..., nbytes=...)``; accesses without a size
        contribute zero, so the gauge measures store traffic.
    """

    buffer_pages: int = 0
    physical_reads: int = 0
    logical_reads: int = 0
    bytes_read: int = 0
    per_category: Dict[str, int] = field(default_factory=dict)
    per_category_logical: Dict[str, int] = field(default_factory=dict)
    _buffer: "OrderedDict[int, None]" = field(default_factory=OrderedDict)
    _lock: threading.Lock = field(
        default_factory=threading.Lock, repr=False, compare=False
    )

    def access(
        self, page_id: int, category: str = "node", *, nbytes: int = 0
    ) -> bool:
        """Record one access to ``page_id``.

        Returns ``True`` if the access was a physical read (buffer miss).
        ``category`` labels the access for per-phase breakdowns
        ("feedback", "knn", ...); every access is attributed logically,
        and buffer misses additionally count as physical reads for the
        category.  ``nbytes`` (the page's payload size, when the caller
        knows it) is charged to :attr:`bytes_read` on a miss.
        """
        with self._lock:
            self.logical_reads += 1
            self.per_category_logical[category] = (
                self.per_category_logical.get(category, 0) + 1
            )
            if self.buffer_pages > 0 and page_id in self._buffer:
                self._buffer.move_to_end(page_id)
                return False
            self.physical_reads += 1
            self.bytes_read += int(nbytes)
            self.per_category[category] = (
                self.per_category.get(category, 0) + 1
            )
            if self.buffer_pages > 0:
                self._buffer[page_id] = None
                if len(self._buffer) > self.buffer_pages:
                    self._buffer.popitem(last=False)
            return True

    def reset(self) -> None:
        """Zero all counters and clear the buffer pool."""
        with self._lock:
            self.physical_reads = 0
            self.logical_reads = 0
            self.bytes_read = 0
            self.per_category.clear()
            self.per_category_logical.clear()
            self._buffer.clear()

    def snapshot(self) -> Dict[str, int]:
        """Current counters as a plain dictionary (for reports)."""
        with self._lock:
            out = {
                "physical_reads": self.physical_reads,
                "logical_reads": self.logical_reads,
                "bytes_read": self.bytes_read,
            }
            for key, value in sorted(self.per_category.items()):
                out[f"reads[{key}]"] = value
            for key, value in sorted(self.per_category_logical.items()):
                out[f"logical_reads[{key}]"] = value
            return out
