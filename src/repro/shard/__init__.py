"""Sharded scatter-gather deployment of the QD engine (ROADMAP item 1).

Public surface:

* :func:`~repro.shard.partition.partition_leaves` /
  :class:`~repro.shard.partition.ShardAssignment` — deterministic
  leaf-granular partitioning,
* :func:`~repro.shard.partition.build_shard_structure` — pruned
  per-shard tree copies keeping global node identity,
* :class:`~repro.shard.engine.Shard` /
  :class:`~repro.shard.engine.ShardedRFS` /
  :class:`~repro.shard.engine.ShardedEngine` — the router and engine
  whose rankings are bit-identical to single-node (see the parity
  argument in :mod:`repro.shard.engine`).
"""

from repro._lazy import lazy_exports

__all__ = [
    "PARTITION_STRATEGIES",
    "Shard",
    "ShardAssignment",
    "ShardedEngine",
    "ShardedRFS",
    "build_router",
    "build_shard_structure",
    "dfs_leaves",
    "partition_leaves",
]

__getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "repro.shard.engine": (
            "Shard",
            "ShardedEngine",
            "ShardedRFS",
            "build_router",
        ),
        "repro.shard.partition": (
            "PARTITION_STRATEGIES",
            "ShardAssignment",
            "build_shard_structure",
            "dfs_leaves",
            "partition_leaves",
        ),
    },
)
