"""Frozen configuration dataclasses for every tunable in the system.

Defaults reproduce the paper's prototype settings:

* 37-dimensional feature vector (9 colour moments + 10 wavelet texture +
  18 edge structure) — §4, Feature Extraction Module.
* RFS nodes hold between 70 and 100 entries and ~5 % of images are
  designated representative — §4, RFS Structure / prototype discussion.
* Boundary-expansion threshold 0.4 — §3.3 ("we set our threshold to 0.4").
* 21 images displayed per feedback screen — §4, Presentation Manager.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.errors import ConfigurationError


@dataclass(frozen=True)
class FeatureConfig:
    """Parameters of the 37-dimensional feature pipeline.

    Attributes
    ----------
    color_dims:
        Colour-moment features (mean, stddev, skewness of H, S, V) — 9.
    texture_dims:
        Wavelet-based texture features from a 3-level Haar DWT — 10.
    edge_dims:
        Edge-based structural features (orientation histogram + structure
        statistics) — 18.
    image_size:
        Side length of the square RGB images the renderer produces.  Must
        be divisible by ``2 ** wavelet_levels``.
    wavelet_levels:
        Depth of the Haar wavelet decomposition.
    """

    color_dims: int = 9
    texture_dims: int = 10
    edge_dims: int = 18
    image_size: int = 32
    wavelet_levels: int = 3

    def __post_init__(self) -> None:
        if self.image_size % (2**self.wavelet_levels) != 0:
            raise ConfigurationError(
                "image_size must be divisible by 2**wavelet_levels "
                f"({2 ** self.wavelet_levels}), got {self.image_size}"
            )
        for name in ("color_dims", "texture_dims", "edge_dims"):
            if getattr(self, name) <= 0:
                raise ConfigurationError(f"{name} must be positive")

    @property
    def total_dims(self) -> int:
        """Total feature dimensionality (37 with paper defaults)."""
        return self.color_dims + self.texture_dims + self.edge_dims


@dataclass(frozen=True)
class RFSConfig:
    """Parameters of the Relevance Feedback Support structure.

    Attributes
    ----------
    node_max_entries:
        R*-tree node capacity.  The paper uses max 100 / min 70, which on a
        15,000-image database yields a 3-level tree.  Its minimum of 70
        cannot hold under binary bisection (splitting 101 entries cannot
        give two nodes of >= 70), so the build bounds nodes below by
        ``max(2, 40 % of max)`` instead
        (:func:`repro.index.rstar.split_min_entries`).
    representative_fraction:
        Target fraction of database images designated representative
        (paper: 5 %).
    leaf_subclusters:
        Number of k-means subclusters formed inside each leaf when
        selecting its representatives.
    """

    node_max_entries: int = 100
    representative_fraction: float = 0.05
    leaf_subclusters: int = 5

    def __post_init__(self) -> None:
        if self.node_max_entries < 4:
            raise ConfigurationError("node_max_entries must be >= 4")
        if not 0 < self.representative_fraction <= 1:
            raise ConfigurationError(
                "representative_fraction must be in (0, 1]"
            )
        if self.leaf_subclusters < 1:
            raise ConfigurationError("leaf_subclusters must be >= 1")


@dataclass(frozen=True)
class QDConfig:
    """Parameters of the Query Decomposition engine.

    Attributes
    ----------
    boundary_threshold:
        Expansion trigger: if distance(query image, node centre) divided by
        the node diagonal exceeds this ratio, the localized k-NN search is
        widened to the parent node (paper: 0.4).
    display_size:
        Number of representative images shown per feedback screen
        (paper: 21).
    max_rounds:
        Feedback rounds before the final localized k-NN (paper protocol: 3
        rounds total).
    """

    boundary_threshold: float = 0.4
    display_size: int = 21
    max_rounds: int = 3

    def __post_init__(self) -> None:
        if not 0 <= self.boundary_threshold <= 1:
            raise ConfigurationError(
                "boundary_threshold must be in [0, 1], got "
                f"{self.boundary_threshold}"
            )
        if self.display_size < 1:
            raise ConfigurationError("display_size must be >= 1")
        if self.max_rounds < 1:
            raise ConfigurationError("max_rounds must be >= 1")


#: Feature-store backings accepted by the CLI ``--store`` flag (see
#: :mod:`repro.store`).
STORE_KINDS: tuple[str, ...] = ("inmem", "memmap")


@dataclass(frozen=True)
class CacheConfig:
    """Parameters of the cross-session subquery result cache.

    Attributes
    ----------
    enabled:
        Whether an engine built with this config (the CLI ``--cache``
        flag) attaches a :class:`repro.cache.SubqueryResultCache` to its
        RFS structure.
        Disabled by default — caching only pays off when sessions
        repeat subqueries (concurrent traffic over hot neighborhoods).
    capacity_mb:
        Byte budget of the cache's LRU, in mebibytes (CLI
        ``--cache-mb``).  Least-recently-used entries are evicted past
        it; entries stamped with an outdated RFS structure version are
        dropped on lookup regardless of the budget.
    """

    enabled: bool = False
    capacity_mb: float = 64.0

    def __post_init__(self) -> None:
        if not (math.isfinite(self.capacity_mb) and self.capacity_mb > 0):
            raise ConfigurationError(
                f"cache capacity_mb must be a positive finite number, "
                f"got {self.capacity_mb}"
            )

    @property
    def capacity_bytes(self) -> int:
        """The LRU byte budget (``capacity_mb`` converted to bytes)."""
        return int(self.capacity_mb * 1024 * 1024)


#: Session-store backends accepted by the CLI ``--session-store`` flag
#: (see :mod:`repro.sessionstore`).
SESSION_STORE_KINDS: tuple[str, ...] = ("memory", "sqlite")


@dataclass(frozen=True)
class ServeConfig:
    """Parameters of the concurrent serving front-end (:mod:`repro.serve`).

    Every bound is validated here, up front, with a clear
    :class:`~repro.errors.ConfigurationError` — a non-positive queue
    limit or deadline would otherwise only surface deep inside the
    server loop as requests that can never be admitted or always
    expire.

    Attributes
    ----------
    workers:
        Execution slots, each owning a
        :class:`~repro.core.SessionFrontEnd` over the shared session
        store (and the engine's hot session copies): how many requests
        execute at once.  Every request runs on the thread that brought
        it; the server starts no thread of its own.
    queue_limit:
        How many callers may wait for a slot.  A request arriving while
        that many wait is *shed* immediately with a retriable response
        instead of waiting unboundedly — the bound is what keeps tail
        latency finite under overload.
    default_deadline_s:
        Per-request deadline applied when the caller does not set one.
        A caller still waiting for a slot at its deadline is answered
        ``deadline_expired`` then, without executing (running it would
        waste server time on an answer the client has given up on).
    drain_timeout_s:
        How long :meth:`repro.serve.QDServer.close` waits for waiting
        and executing requests to finish during a graceful drain before
        returning without them (``0`` waits forever).
    """

    workers: int = 4
    queue_limit: int = 64
    default_deadline_s: float = 30.0
    drain_timeout_s: float = 5.0

    def __post_init__(self) -> None:
        if self.workers < 1:
            raise ConfigurationError(
                f"serve workers must be >= 1, got {self.workers}"
            )
        if self.queue_limit < 1:
            raise ConfigurationError(
                f"serve queue_limit must be >= 1, got {self.queue_limit}"
            )
        if not (
            math.isfinite(self.default_deadline_s)
            and self.default_deadline_s > 0
        ):
            raise ConfigurationError(
                "serve default_deadline_s must be a positive finite "
                f"number of seconds, got {self.default_deadline_s}"
            )
        if not (
            math.isfinite(self.drain_timeout_s)
            and self.drain_timeout_s >= 0
        ):
            raise ConfigurationError(
                "serve drain_timeout_s must be >= 0 and finite "
                f"(0 = wait forever), got {self.drain_timeout_s}"
            )


@dataclass(frozen=True)
class MutationConfig:
    """Parameters of the generational mutation engine
    (:mod:`repro.index.generations`).

    Attributes
    ----------
    compact_threshold:
        Delta-segment size (live inserts + tombstones) that triggers an
        automatic compaction.  Small thresholds keep the brute-force
        delta merge cheap; large ones amortize rebuild cost over more
        mutations.  The write that reaches it compacts before it
        returns; scans never wait for a compaction.
    """

    compact_threshold: int = 256

    def __post_init__(self) -> None:
        if self.compact_threshold < 1:
            raise ConfigurationError(
                f"compact_threshold must be >= 1, got "
                f"{self.compact_threshold}"
            )


@dataclass(frozen=True)
class DatasetConfig:
    """Parameters of the synthetic Corel-like dataset.

    Attributes
    ----------
    total_images:
        Database size (paper: 15,000).
    n_categories:
        Total number of categories including distractors (paper: ~150).
    image_size:
        Rendered image side length.
    seed:
        Master seed for the whole dataset build.
    """

    total_images: int = 15_000
    n_categories: int = 150
    image_size: int = 32
    seed: int = 2006

    def __post_init__(self) -> None:
        if self.total_images < self.n_categories:
            raise ConfigurationError(
                "total_images must be >= n_categories"
            )
        if self.n_categories < 1:
            raise ConfigurationError("n_categories must be >= 1")

