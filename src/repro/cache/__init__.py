"""Cross-session result caching for the QD serving path.

See :mod:`repro.cache.result_cache` for the cache design (canonical
subquery digests, RFS structure versioning, byte-capped LRU).
"""

from repro.cache.result_cache import (
    CachedSubquery,
    SubqueryResultCache,
    scan_and_publish,
    subquery_cache_key,
)

__all__ = [
    "CachedSubquery",
    "SubqueryResultCache",
    "scan_and_publish",
    "subquery_cache_key",
]
