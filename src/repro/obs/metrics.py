"""Metrics registry: labeled counters, gauges, and streaming histograms.

Mirrors the Prometheus data model at the scale this project needs:
instruments are created lazily by ``(name, labels)``, carry an optional
help string, and are exported by
:func:`repro.obs.export.prometheus_text`.  The default registry is a
process-wide no-op returning shared null instruments, so unmetered runs
pay only a dictionary-free method call at each instrumentation site.

Labels
------
Every instrument accessor takes an optional ``labels`` mapping::

    registry.counter(
        "qd_cache_requests_total", "cache lookups",
        labels={"outcome": "hit"},
    ).inc()

Instruments with the same name but different label sets form one
*family* (one ``# TYPE``/``# HELP`` block in the Prometheus text
exposition, one sample line per child).  Label values are stringified;
the canonical child key is ``name{k="v",...}`` with keys sorted, so the
same labels always resolve to the same instrument.

Histograms
----------
:class:`Histogram` is a bounded-memory *streaming* histogram: every
observation lands in fixed log-spaced buckets (shared across all
instruments) plus a deterministic
reservoir capped at ``reservoir_cap`` samples.  ``percentile`` is exact
while the reservoir still holds every sample (count <= cap) and
switches to a documented bucket estimator above the cap — see
:meth:`Histogram.percentile`.  Million-observation serving runs
therefore hold a constant few KiB per instrument instead of an
ever-growing sample list.

The canonical instrument names and label conventions used by the
built-in instrumentation are catalogued in ``docs/OBSERVABILITY.md``.
"""

from __future__ import annotations

import bisect
import math
import random
import threading
import zlib
from contextlib import contextmanager
from typing import (
    Any,
    Dict,
    Iterator,
    List,
    Mapping,
    Optional,
    Tuple,
    Union,
)

import numpy as np

LabelsLike = Optional[Mapping[str, Any]]
LabelItems = Tuple[Tuple[str, str], ...]

#: Default reservoir size: percentiles are exact up to this many
#: observations per instrument, estimated from buckets beyond it.
RESERVOIR_CAP = 1024

#: Shared log-spaced bucket upper bounds: 5 per decade, 1e-9 .. 1e9.
#: Values <= the smallest bound (including zeros and negatives) land in
#: bucket 0; values beyond the largest bound land in the overflow
#: bucket.
BUCKET_BOUNDS: Tuple[float, ...] = tuple(
    10.0 ** (exp / 5.0) for exp in range(-45, 46)
)
_N_BUCKETS = len(BUCKET_BOUNDS) + 1  # + overflow


def label_items(labels: LabelsLike) -> LabelItems:
    """Canonical (sorted, stringified) label pairs."""
    if not labels:
        return ()
    return tuple(sorted((str(k), str(v)) for k, v in labels.items()))


def instrument_key(name: str, labels: LabelsLike = None) -> str:
    """Canonical child key: ``name`` or ``name{k="v",...}``."""
    items = labels if isinstance(labels, tuple) else label_items(labels)
    if not items:
        return name
    inner = ",".join(f'{k}="{v}"' for k, v in items)
    return f"{name}{{{inner}}}"


#: Cap on each registry's labeled-handle cache (see
#: :class:`MetricsRegistry`).  Unbounded-cardinality label values fall
#: back to canonical-key construction instead of growing the cache.
_HANDLE_CACHE_CAP = 4096


class Counter:
    """Monotonically increasing value.

    Mutation is lock-protected so concurrent request threads never lose
    an increment (``value += amount`` is a read-modify-write that is not
    atomic across threads).
    """

    __slots__ = ("name", "help", "labels", "key", "value", "_lock")

    def __init__(
        self, name: str, help: str = "", labels: LabelsLike = None
    ) -> None:
        self.name = name
        self.help = help
        self.labels: Dict[str, str] = dict(label_items(labels))
        self.key = instrument_key(name, labels)
        self.value = 0.0
        self._lock = threading.Lock()

    def inc(self, amount: float = 1.0) -> None:
        """Add ``amount`` (must be >= 0) to the counter."""
        if amount < 0:
            raise ValueError(f"counter {self.key}: negative inc {amount}")
        with self._lock:
            self.value += amount


class Gauge:
    """A value that can go up and down."""

    __slots__ = ("name", "help", "labels", "key", "value", "_lock")

    def __init__(
        self, name: str, help: str = "", labels: LabelsLike = None
    ) -> None:
        self.name = name
        self.help = help
        self.labels: Dict[str, str] = dict(label_items(labels))
        self.key = instrument_key(name, labels)
        self.value = 0.0
        self._lock = threading.Lock()

    def set(self, value: float) -> None:
        """Replace the gauge's value."""
        with self._lock:
            self.value = float(value)

    def inc(self, amount: float = 1.0) -> None:
        """Add ``amount`` (may be negative)."""
        with self._lock:
            self.value += amount


_BOUND_0 = BUCKET_BOUNDS[0]


class Histogram:
    """Bounded-memory sample distribution with percentile readout.

    State per instrument: the shared log-spaced bucket counts
    (:data:`BUCKET_BOUNDS`), running count/sum/min/max, and a reservoir
    of at most ``cap`` raw samples maintained with Algorithm R under a
    deterministic RNG seeded from the instrument key — so two runs that
    observe the same stream hold the same reservoir.

    ``observe`` is lock-protected so concurrent threads cannot drop
    samples.
    """

    __slots__ = (
        "name", "help", "labels", "key", "cap",
        "_counts", "_reservoir", "_seen",
        "_count", "_sum", "_min", "_max", "_rng", "_lock",
    )

    def __init__(
        self,
        name: str,
        help: str = "",
        labels: LabelsLike = None,
        cap: int = RESERVOIR_CAP,
    ) -> None:
        self.name = name
        self.help = help
        self.labels: Dict[str, str] = dict(label_items(labels))
        self.key = instrument_key(name, labels)
        self.cap = int(cap)
        self._counts: List[int] = [0] * _N_BUCKETS
        self._reservoir: List[float] = []
        self._seen = 0  # samples streamed through the reservoir
        self._count = 0
        self._sum = 0.0
        self._min = math.inf
        self._max = -math.inf
        self._rng = random.Random(zlib.crc32(self.key.encode("utf-8")))
        self._lock = threading.Lock()

    def observe(self, value: float) -> None:
        """Record one sample.

        Deliberately flat: this runs once per kernel call on the store
        scan path, so every piece of state folds in here without helper
        calls (a delegating ``_record`` costs ~20% of the observe).
        """
        value = float(value)
        with self._lock:
            self._count += 1
            self._sum += value
            if value < self._min:
                self._min = value
            if value > self._max:
                self._max = value
            if value <= _BOUND_0:
                self._counts[0] += 1
            else:
                self._counts[bisect.bisect_left(BUCKET_BOUNDS, value)] += 1
            # Algorithm R: uniform without-replacement stream sample.
            reservoir = self._reservoir
            if len(reservoir) < self.cap:
                reservoir.append(value)
            else:
                slot = self._rng.randrange(self._seen + 1)
                if slot < self.cap:
                    reservoir[slot] = value
            self._seen += 1

    @property
    def count(self) -> int:
        """Number of recorded samples."""
        return self._count

    @property
    def sum(self) -> float:
        """Sum of recorded samples."""
        return self._sum

    @property
    def samples(self) -> List[float]:
        """The retained reservoir (every sample while count <= cap)."""
        with self._lock:
            return list(self._reservoir)

    def mean(self) -> float:
        """Mean sample (0.0 when empty)."""
        return self._sum / self._count if self._count else 0.0

    def percentile(self, q: float) -> float:
        """The ``q``-th percentile (0-100) of the samples, 0.0 if empty.

        Exact (``numpy.percentile`` over the raw samples) while the
        reservoir still holds the full stream, i.e. ``count <= cap``.
        Beyond the cap the estimate comes from the log-spaced buckets:
        find the bucket containing the target rank and interpolate
        geometrically between its bounds, clamped to the observed
        min/max.  The relative error is bounded by the bucket width
        (5 buckets per decade, ~58% span, typically a few percent at
        the interpolated point).
        """
        with self._lock:
            if self._count == 0:
                return 0.0
            if self._count == len(self._reservoir):
                return float(np.percentile(np.asarray(self._reservoir), q))
            return self._percentile_from_buckets(q)

    def _percentile_from_buckets(self, q: float) -> float:
        """Rank interpolation over bucket counts (lock held)."""
        target = q / 100.0 * self._count
        cumulative = 0
        for idx, bucket_count in enumerate(self._counts):
            if bucket_count == 0:
                continue
            if cumulative + bucket_count >= target:
                lo = BUCKET_BOUNDS[idx - 1] if idx > 0 else self._min
                hi = (
                    BUCKET_BOUNDS[idx]
                    if idx < len(BUCKET_BOUNDS)
                    else self._max
                )
                lo = max(lo, self._min)
                hi = min(hi, self._max)
                if lo <= 0 or hi <= 0 or hi <= lo:
                    return float(min(max(hi, self._min), self._max))
                frac = (target - cumulative) / bucket_count
                frac = min(1.0, max(0.0, frac))
                est = lo * (hi / lo) ** frac
                return float(min(max(est, self._min), self._max))
            cumulative += bucket_count
        return float(self._max)

    def bucket_counts(self) -> List[Tuple[float, int]]:
        """Cumulative ``(upper_bound, count)`` pairs for exposition.

        Only boundaries where the cumulative count changes are emitted
        (plus the final ``+Inf``), which keeps the text dump compact
        while remaining a valid Prometheus histogram series.
        """
        with self._lock:
            out: List[Tuple[float, int]] = []
            cumulative = 0
            for idx, bucket_count in enumerate(self._counts):
                if bucket_count == 0:
                    continue
                cumulative += bucket_count
                bound = (
                    BUCKET_BOUNDS[idx]
                    if idx < len(BUCKET_BOUNDS)
                    else math.inf
                )
                if out and out[-1][0] == bound:
                    out[-1] = (bound, cumulative)
                else:
                    out.append((bound, cumulative))
            if not out or out[-1][0] != math.inf:
                out.append((math.inf, cumulative))
            return out


class _NullInstrument:
    """Shared do-nothing counter/gauge/histogram."""

    __slots__ = ()

    name = ""
    help = ""
    key = ""
    labels: Dict[str, str] = {}
    value = 0.0
    samples: List[float] = []
    count = 0
    sum = 0.0

    def inc(self, amount: float = 1.0) -> None:
        return None

    def set(self, value: float) -> None:
        return None

    def observe(self, value: float) -> None:
        return None

    def mean(self) -> float:
        return 0.0

    def percentile(self, q: float) -> float:
        return 0.0

    def bucket_counts(self) -> List[Tuple[float, int]]:
        return []


_NULL_INSTRUMENT = _NullInstrument()


class NullMetrics:
    """The zero-overhead default registry: records nothing."""

    __slots__ = ()

    enabled = False

    def counter(
        self, name: str, help: str = "", labels: LabelsLike = None
    ) -> _NullInstrument:
        return _NULL_INSTRUMENT

    def gauge(
        self, name: str, help: str = "", labels: LabelsLike = None
    ) -> _NullInstrument:
        return _NULL_INSTRUMENT

    def histogram(
        self, name: str, help: str = "", labels: LabelsLike = None
    ) -> _NullInstrument:
        return _NULL_INSTRUMENT


NULL_METRICS = NullMetrics()


class MetricsRegistry:
    """Named (and labeled) instruments, created lazily on first use.

    Instruments live in three dictionaries keyed by the canonical child
    key (``name`` or ``name{k="v",...}``).  Creation and mutation are
    both thread-safe: get-or-create holds a registry lock (so two
    threads racing on a new key share one instrument) and each
    instrument locks its own state.

    Labeled lookups additionally consult a bounded handle cache keyed
    by the labels' *raw* items (no sort, no stringify): instrumentation
    sites call with small constant label dicts once per kernel call or
    block read, and canonical-key construction per call (~2 us vs
    ~0.3 us for a cached hit) is enough to blow the <5 % obs-overhead
    budget on scan-heavy rounds.  Two insertion orders of the same
    labels occupy two cache slots but resolve to one instrument; the
    dicts above are append-only, so cached handles never go stale.
    Plain ``dict`` get/set is atomic under the GIL — a racing miss at
    worst re-resolves and re-writes the same instrument.
    """

    enabled = True

    def __init__(self) -> None:
        self.counters: Dict[str, Counter] = {}
        self.gauges: Dict[str, Gauge] = {}
        self.histograms: Dict[str, Histogram] = {}
        self._handles: Dict[Tuple[str, str, Tuple], Any] = {}
        self._lock = threading.Lock()

    def counter(
        self, name: str, help: str = "", labels: LabelsLike = None
    ) -> Counter:
        """Get-or-create the counter ``name`` with ``labels``."""
        hkey = None
        if labels:
            try:
                hkey = ("c", name, tuple(labels.items()))
                inst = self._handles.get(hkey)
            except TypeError:  # unhashable label value
                inst = None
            if inst is not None:
                return inst
            key = instrument_key(name, labels)
        else:
            key = name
        inst = self.counters.get(key)
        if inst is None:
            with self._lock:
                inst = self.counters.get(key)
                if inst is None:
                    inst = self.counters[key] = Counter(name, help, labels)
        if hkey is not None and len(self._handles) < _HANDLE_CACHE_CAP:
            self._handles[hkey] = inst
        return inst

    def gauge(
        self, name: str, help: str = "", labels: LabelsLike = None
    ) -> Gauge:
        """Get-or-create the gauge ``name`` with ``labels``."""
        hkey = None
        if labels:
            try:
                hkey = ("g", name, tuple(labels.items()))
                inst = self._handles.get(hkey)
            except TypeError:  # unhashable label value
                inst = None
            if inst is not None:
                return inst
            key = instrument_key(name, labels)
        else:
            key = name
        inst = self.gauges.get(key)
        if inst is None:
            with self._lock:
                inst = self.gauges.get(key)
                if inst is None:
                    inst = self.gauges[key] = Gauge(name, help, labels)
        if hkey is not None and len(self._handles) < _HANDLE_CACHE_CAP:
            self._handles[hkey] = inst
        return inst

    def histogram(
        self, name: str, help: str = "", labels: LabelsLike = None
    ) -> Histogram:
        """Get-or-create the histogram ``name`` with ``labels``."""
        hkey = None
        if labels:
            try:
                hkey = ("h", name, tuple(labels.items()))
                inst = self._handles.get(hkey)
            except TypeError:  # unhashable label value
                inst = None
            if inst is not None:
                return inst
            key = instrument_key(name, labels)
        else:
            key = name
        inst = self.histograms.get(key)
        if inst is None:
            with self._lock:
                inst = self.histograms.get(key)
                if inst is None:
                    inst = self.histograms[key] = Histogram(
                        name, help, labels
                    )
        if hkey is not None and len(self._handles) < _HANDLE_CACHE_CAP:
            self._handles[hkey] = inst
        return inst

    def snapshot(self) -> Dict[str, float]:
        """Flat key -> value view (histograms report count/sum/p95)."""
        out: Dict[str, float] = {}
        for key, counter in sorted(self.counters.items()):
            out[key] = counter.value
        for key, gauge in sorted(self.gauges.items()):
            out[key] = gauge.value
        for key, hist in sorted(self.histograms.items()):
            out[f"{key}_count"] = float(hist.count)
            out[f"{key}_sum"] = hist.sum
            out[f"{key}_p95"] = hist.percentile(95)
        return out


MetricsLike = Union[MetricsRegistry, NullMetrics]

_current_metrics: MetricsLike = NULL_METRICS


def get_metrics() -> MetricsLike:
    """The process-wide registry (the no-op singleton unless installed)."""
    return _current_metrics


def set_metrics(registry: Optional[MetricsLike]) -> MetricsLike:
    """Install ``registry`` globally; returns the previous one.

    ``None`` restores the no-op default.
    """
    global _current_metrics
    previous = _current_metrics
    _current_metrics = registry if registry is not None else NULL_METRICS
    return previous


@contextmanager
def use_metrics(registry: MetricsLike) -> Iterator[MetricsLike]:
    """Context manager installing ``registry`` for the enclosed block."""
    previous = set_metrics(registry)
    try:
        yield registry
    finally:
        set_metrics(previous)
