"""Cross-session result caching for the QD serving path.

See :mod:`repro.cache.result_cache` for the cache design (canonical
subquery digests, RFS structure versioning, byte-capped LRU).
"""

from repro._lazy import lazy_exports

__all__ = [
    "CachedSubquery",
    "SubqueryResultCache",
    "scan_and_publish",
    "subquery_cache_key",
]

__getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "repro.cache.result_cache": (
            "CachedSubquery",
            "SubqueryResultCache",
            "scan_and_publish",
            "subquery_cache_key",
        ),
    },
)
