"""Command-line interface.

Provides the common workflows without writing Python::

    repro-cbir build-db    --images 3000 --categories 60 --out db.npz
    repro-cbir build-rfs   --db db.npz --out rfs.npz
    repro-cbir build-store --db db.npz --out store_dir
    repro-cbir query       --db db.npz --query bird --seed 7
    repro-cbir query       --db db.npz --query bird --store memmap \
                           --store-path store_dir
    repro-cbir info        --db db.npz
    repro-cbir index verify --db db.npz --rfs rfs.npz
    repro-cbir experiment  table1 --db db.npz

``python -m repro.cli`` works identically.
"""

from __future__ import annotations

import argparse
import contextlib
import signal
import sys
from typing import Iterator, Optional, Sequence

from repro import obs
from repro.config import (
    EXECUTOR_KINDS,
    STORE_KINDS,
    STORE_TIERS,
    BuildConfig,
    DatasetConfig,
    QDConfig,
    RFSConfig,
)
from repro.core.engine import QueryDecompositionEngine
from repro.datasets.database import ImageDatabase
from repro.errors import ReproError
from repro.index.rfs import RFSStructure

# What only some subcommands need (rendering, evaluation, index files,
# the trace exporters) is imported inside them: ``serve`` starts
# without compiling it.


class _QueryNames:
    """``query --query``'s choices, read from the query set only when
    argparse checks or prints them, so building the parser loads none
    of it."""

    def __iter__(self) -> Iterator[str]:
        from repro.datasets.queryset import query_names

        return iter(query_names())

    def __contains__(self, name: object) -> bool:
        return name in list(self)


def build_parser() -> argparse.ArgumentParser:
    """Construct the top-level argument parser."""
    parser = argparse.ArgumentParser(
        prog="repro-cbir",
        description=(
            "Query Decomposition CBIR (Hua, Yu & Liu, ICDE 2006) — "
            "build databases, run retrieval sessions, regenerate the "
            "paper's experiments."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_db = sub.add_parser(
        "build-db", help="render a synthetic Corel-like database"
    )
    p_db.add_argument("--images", type=int, default=3000)
    p_db.add_argument("--categories", type=int, default=60)
    p_db.add_argument("--seed", type=int, default=2006)
    p_db.add_argument("--out", required=True, help="output .npz path")

    p_rfs = sub.add_parser(
        "build-rfs", help="build and persist the RFS structure"
    )
    p_rfs.add_argument("--db", required=True, help="database .npz path")
    p_rfs.add_argument("--out", required=True, help="output .npz path")
    p_rfs.add_argument("--seed", type=int, default=2006)
    p_rfs.add_argument("--node-max", type=int, default=100)
    p_rfs.add_argument(
        "--method", choices=("rstar", "hkmeans"), default="rstar"
    )
    _add_build_flags(p_rfs)

    p_store = sub.add_parser(
        "build-store",
        help="build and persist the leaf-contiguous feature store",
    )
    p_store.add_argument("--db", required=True, help="database .npz path")
    p_store.add_argument(
        "--rfs", help="pre-built RFS .npz (else built from --seed)"
    )
    p_store.add_argument(
        "--out", required=True, help="output store directory"
    )
    p_store.add_argument(
        "--tier",
        choices=STORE_TIERS,
        default="f32",
        help="scan tier: f32, the exact float32 rows (the only tier)",
    )
    p_store.add_argument("--seed", type=int, default=2006)
    _add_build_flags(p_store)

    p_query = sub.add_parser(
        "query", help="run one oracle-driven QD session"
    )
    p_query.add_argument("--db", required=True)
    p_query.add_argument("--rfs", help="optional pre-built RFS .npz")
    p_query.add_argument(
        "--query", required=True, choices=_QueryNames(), metavar="NAME",
        help="test query: %(choices)s",
    )
    p_query.add_argument("--k", type=int, default=0,
                         help="result size (0 = ground-truth size)")
    p_query.add_argument("--seed", type=int, default=7)
    p_query.add_argument("--rounds", type=int, default=3)
    _add_shard_flags(p_query)
    _add_exec_flags(p_query)
    _add_store_flags(p_query)
    _add_cache_flags(p_query)
    _add_session_flags(p_query)
    _add_obs_flags(p_query)

    p_info = sub.add_parser("info", help="describe a database file")
    p_info.add_argument("--db", required=True)

    p_index = sub.add_parser(
        "index", help="operate on saved RFS structures"
    )
    index_sub = p_index.add_subparsers(
        dest="index_command", required=True
    )
    p_verify = index_sub.add_parser(
        "verify",
        help=(
            "audit tree / store / delta invariants of a saved "
            "structure (exit 1 when any check fails)"
        ),
    )
    p_verify.add_argument("--db", required=True)
    p_verify.add_argument(
        "--rfs", required=True, help="saved RFS .npz path"
    )
    _add_store_flags(p_verify)

    p_storecmd = sub.add_parser(
        "store", help="inspect saved feature-store directories"
    )
    store_sub = p_storecmd.add_subparsers(
        dest="store_command", required=True
    )
    p_sinfo = store_sub.add_parser(
        "info",
        help="describe a saved store: shape, dtype, bytes, node spans",
    )
    p_sinfo.add_argument(
        "--path", required=True, help="saved store directory"
    )

    p_int = sub.add_parser(
        "interactive",
        help="drive a feedback session by hand in the terminal",
    )
    p_int.add_argument("--db", required=True)
    p_int.add_argument("--rfs", help="optional pre-built RFS .npz")
    p_int.add_argument("--k", type=int, default=40)
    p_int.add_argument("--rounds", type=int, default=3)
    p_int.add_argument("--screens", type=int, default=2)
    p_int.add_argument("--seed", type=int, default=7)
    _add_exec_flags(p_int)
    _add_store_flags(p_int)
    _add_cache_flags(p_int)
    _add_session_flags(p_int)
    _add_obs_flags(p_int)

    p_exp = sub.add_parser(
        "experiment", help="regenerate a paper table/figure"
    )
    p_exp.add_argument(
        "name",
        choices=("table1", "table2", "fig1", "cases", "scalability"),
    )
    p_exp.add_argument("--db", required=True)
    p_exp.add_argument("--seed", type=int, default=2006)
    p_exp.add_argument("--trials", type=int, default=3)
    _add_exec_flags(p_exp)
    _add_store_flags(p_exp)
    _add_cache_flags(p_exp)
    _add_obs_flags(p_exp)

    p_sessions = sub.add_parser(
        "sessions",
        help="inspect / expire externalized session records",
    )
    sessions_sub = p_sessions.add_subparsers(
        dest="sessions_command", required=True
    )
    p_slist = sessions_sub.add_parser(
        "list", help="list checkpointed sessions in a store"
    )
    _add_session_flags(p_slist, required=True)
    p_sexpire = sessions_sub.add_parser(
        "expire", help="sweep sessions idle longer than --ttl"
    )
    _add_session_flags(p_sexpire, required=True)
    p_sexpire.add_argument(
        "--ttl",
        type=float,
        default=3600.0,
        metavar="SECONDS",
        help="idle time after which a session record is removed",
    )

    p_serve = sub.add_parser(
        "serve",
        help=(
            "serve concurrent feedback sessions over TCP (JSON lines) "
            "with admission control"
        ),
    )
    p_serve.add_argument("--db", required=True)
    p_serve.add_argument("--host", default="127.0.0.1")
    p_serve.add_argument(
        "--port", type=int, default=7306,
        help="TCP port (0 = OS-assigned)",
    )
    p_serve.add_argument("--seed", type=int, default=7)
    p_serve.add_argument(
        "--serve-workers", type=int, default=4, metavar="N",
        help="requests executing at once (slots; as many worker threads)",
    )
    p_serve.add_argument(
        "--queue-limit", type=int, default=64, metavar="N",
        help="admission-queue bound; requests beyond it are shed",
    )
    p_serve.add_argument(
        "--deadline-s", type=float, default=30.0, metavar="SECONDS",
        help="default per-request deadline",
    )
    p_serve.add_argument(
        "--drain-timeout-s", type=float, default=5.0, metavar="SECONDS",
        help="graceful-drain budget on shutdown (0 = wait forever)",
    )
    _add_shard_flags(p_serve)
    _add_exec_flags(p_serve)
    _add_store_flags(p_serve)
    _add_cache_flags(p_serve)
    _add_session_flags(p_serve, required=True)
    _add_mutation_flags(p_serve)
    _add_obs_flags(p_serve)

    p_bench = sub.add_parser(
        "bench", help="inspect canonical benchmark results"
    )
    bench_sub = p_bench.add_subparsers(dest="bench_command", required=True)
    p_report = bench_sub.add_parser(
        "report",
        help=(
            "print a trend table of BENCH_*.json results and, when a "
            "baseline directory exists, the noise-aware diff against it"
        ),
    )
    p_report.add_argument(
        "--results",
        default="benchmarks/results",
        help="directory of fresh BENCH_*.json files",
    )
    p_report.add_argument(
        "--baseline",
        default="benchmarks/baselines",
        help="directory of committed baseline BENCH_*.json files",
    )
    p_report.add_argument(
        "--include-times",
        action="store_true",
        help="also diff machine-dependent raw-time metrics",
    )

    return parser


def _non_negative_int(text: str) -> int:
    """argparse type: an integer >= 0 (argparse refuses anything else)."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"invalid int value: {text!r}"
        ) from None
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {value}")
    return value


def _add_shard_flags(parser: argparse.ArgumentParser) -> None:
    """Shared sharding flags (query/serve)."""
    parser.add_argument(
        "--shards",
        type=_non_negative_int,
        default=0,
        metavar="N",
        help=(
            "partition the index across N shards with scatter-gather "
            "scans (0 = single-node; rankings are identical either way)"
        ),
    )
    parser.add_argument(
        "--partition",
        choices=("contiguous", "roundrobin"),
        default="contiguous",
        help="how leaves are dealt across shards (with --shards)",
    )


def _build_serving_engine(
    args: argparse.Namespace,
    database: ImageDatabase,
    qd_config: QDConfig,
) -> QueryDecompositionEngine:
    """The engine the query/serve commands run — sharded when asked.

    With ``--shards N`` the store/cache flags translate into *per-shard*
    stores and caches (a sharded deployment has no global store), so
    ``--store memmap``/``--rfs`` combinations that imply one are
    rejected with a clear error instead of silently ignored.
    """
    shards = getattr(args, "shards", 0)
    if shards == 0:
        engine = _single_node_engine(args, database, qd_config)
        _enable_mutations_from_args(engine, args)
        return engine
    from repro.config import CacheConfig
    from repro.shard import ShardedEngine

    if getattr(args, "rfs", None):
        raise ReproError(
            "--shards builds its own (identical) global tree; drop "
            "--rfs or run single-node"
        )
    store_kind = getattr(args, "store", "inmem")
    if store_kind == "memmap":
        raise ReproError(
            "--shards cannot map one saved store across shards; use "
            "--store inmem (per-shard stores) or run single-node"
        )
    cache = None
    if getattr(args, "cache", False):
        cache = CacheConfig(
            enabled=True, capacity_mb=getattr(args, "cache_mb", 64.0)
        )
    engine = ShardedEngine.build(
        database,
        qd_config=qd_config,
        shards=shards,
        partition=getattr(args, "partition", "contiguous"),
        seed=args.seed,
        store=store_kind,
        cache=cache,
    )
    _enable_mutations_from_args(engine, args)
    return engine


def _single_node_engine(
    args: argparse.Namespace,
    database: ImageDatabase,
    qd_config: QDConfig,
) -> QueryDecompositionEngine:
    """Load (``--rfs``) or build the tree, then attach store and cache."""
    if getattr(args, "rfs", None):
        from repro.index.serialize import load_rfs

        rfs = load_rfs(args.rfs, database.features)
    else:
        rfs = RFSStructure.build(database.features, seed=args.seed)
    _attach_store_from_args(rfs, args)
    _attach_cache_from_args(rfs, args)
    return QueryDecompositionEngine(database, rfs, qd_config)


def _add_exec_flags(parser: argparse.ArgumentParser) -> None:
    """Shared executor flags (query/interactive/experiment)."""
    parser.add_argument(
        "--executor",
        choices=EXECUTOR_KINDS,
        default="serial",
        help="how the final-round subqueries run (ranking is identical)",
    )
    parser.add_argument(
        "--workers",
        type=int,
        default=0,
        help="worker count for thread/process executors (0 = cpu count)",
    )


def _add_build_flags(parser: argparse.ArgumentParser) -> None:
    """Shared offline-build flags (build-rfs/build-store)."""
    parser.add_argument(
        "--build-executor",
        choices=EXECUTOR_KINDS,
        default="serial",
        help=(
            "how offline build work runs (the built structure is "
            "bit-identical across executors)"
        ),
    )
    parser.add_argument(
        "--build-workers",
        type=int,
        default=0,
        help="worker count for parallel builds (0 = cpu count)",
    )
    parser.add_argument(
        "--progress",
        action="store_true",
        help="print build progress (nodes clustered / total)",
    )


def _build_config_from_args(args: argparse.Namespace) -> BuildConfig:
    """Build-pipeline config from the ``--build-*`` flags."""
    return BuildConfig(
        executor=getattr(args, "build_executor", "serial"),
        workers=getattr(args, "build_workers", 0),
    )


def _progress_printer(args: argparse.Namespace):
    """Progress callback for ``--progress`` (``None`` when not asked)."""
    if not getattr(args, "progress", False):
        return None

    def emit(event) -> None:
        print(
            f"\r{event.phase}: {event.done}/{event.total}",
            end="" if event.done < event.total else "\n",
            flush=True,
        )

    return emit


def _add_store_flags(parser: argparse.ArgumentParser) -> None:
    """Shared feature-store flags (query/interactive/experiment)."""
    parser.add_argument(
        "--store",
        choices=STORE_KINDS,
        default="inmem",
        help=(
            "the leaf-contiguous feature store scans read through: "
            "'inmem' builds one on the fly, 'memmap' maps a saved "
            "--store-path directory (default: inmem)"
        ),
    )
    parser.add_argument(
        "--store-path",
        metavar="DIR",
        help="saved store directory (required with --store memmap)",
    )
    parser.add_argument(
        "--store-tier",
        choices=STORE_TIERS,
        default="f32",
        help="scan tier: f32, the exact float32 rows (the only tier)",
    )


def _add_session_flags(
    parser: argparse.ArgumentParser, *, required: bool = False
) -> None:
    """Shared session-store flags (query/interactive/sessions)."""
    from repro.config import SESSION_STORE_KINDS

    parser.add_argument(
        "--session-store",
        choices=SESSION_STORE_KINDS,
        default="sqlite" if required else None,
        required=required,
        help=(
            "externalize session state to this backend: sessions "
            "auto-checkpoint after every feedback round and any worker "
            "can resume them (default: in-memory sessions only)"
        ),
    )
    parser.add_argument(
        "--session-path",
        metavar="PATH",
        help=(
            "session-store location: database file for sqlite (unused "
            "by memory)"
        ),
    )


def _session_store_from_args(args: argparse.Namespace):
    """The store the ``--session-store`` flags ask for (or ``None``)."""
    kind = getattr(args, "session_store", None)
    if kind is None:
        return None
    from repro.sessionstore import make_session_store

    return make_session_store(kind, getattr(args, "session_path", "") or "")


def _add_mutation_flags(parser: argparse.ArgumentParser) -> None:
    """Shared mutation flags (serve)."""
    parser.add_argument(
        "--mutations",
        action="store_true",
        help=(
            "accept insert/remove ops: writes land in a delta segment "
            "scanned alongside the main store (rankings bit-identical "
            "to a from-scratch rebuild) with generational compaction "
            "swapping in a fresh tree behind an epoch guard"
        ),
    )
    parser.add_argument(
        "--compact-threshold",
        type=int,
        default=256,
        metavar="N",
        help=(
            "delta rows + tombstones that trigger compaction into a "
            "new generation (default: 256)"
        ),
    )
    parser.add_argument(
        "--compact-background",
        action="store_true",
        help=(
            "run compaction on a background thread instead of inline "
            "on the mutating request (scans never block either way)"
        ),
    )


def _enable_mutations_from_args(
    engine: QueryDecompositionEngine, args: argparse.Namespace
) -> None:
    """Turn on the mutation path when ``--mutations`` asks for it."""
    if not getattr(args, "mutations", False):
        return
    from repro.config import MutationConfig

    engine.enable_mutations(
        MutationConfig(
            compact_threshold=getattr(args, "compact_threshold", 256),
            background=getattr(args, "compact_background", False),
        ),
        seed=getattr(args, "seed", 0) or 0,
    )


def _add_cache_flags(parser: argparse.ArgumentParser) -> None:
    """Shared result-cache flags (query/interactive/experiment)."""
    parser.add_argument(
        "--cache",
        action="store_true",
        help=(
            "attach a cross-session subquery result cache (repeat "
            "queries skip block scans; invalidated by structure version)"
        ),
    )
    parser.add_argument(
        "--cache-mb",
        type=float,
        default=64.0,
        metavar="MB",
        help="result-cache LRU budget in MiB (default: 64)",
    )


def _attach_cache_from_args(
    rfs: RFSStructure, args: argparse.Namespace
) -> None:
    """Attach the subquery result cache ``--cache`` asks for, if any."""
    if not getattr(args, "cache", False):
        return
    from repro.cache import SubqueryResultCache
    from repro.config import CacheConfig

    config = CacheConfig(
        enabled=True, capacity_mb=getattr(args, "cache_mb", 64.0)
    )
    rfs.attach_cache(SubqueryResultCache(config.capacity_bytes))


def _attach_store_from_args(
    rfs: RFSStructure, args: argparse.Namespace
) -> None:
    """Attach the feature store the ``--store`` flags ask for."""
    from repro.store import FeatureStore

    if getattr(args, "store", "inmem") == "inmem":
        rfs.attach_store(FeatureStore.build(rfs), validate=False)
        return
    path = getattr(args, "store_path", None)
    if not path:
        raise ReproError(
            "--store memmap needs --store-path (a directory written by "
            "'build-store')"
        )
    rfs.attach_store(FeatureStore.open(path, mode="memmap"))


def _qd_config_from_args(args: argparse.Namespace) -> QDConfig:
    """Build the session config from the executor flags."""
    return QDConfig(
        executor=getattr(args, "executor", "serial"),
        workers=getattr(args, "workers", 0),
    )


def _add_obs_flags(parser: argparse.ArgumentParser) -> None:
    """Shared observability flags (query/interactive/experiment)."""
    parser.add_argument(
        "--trace",
        metavar="FILE",
        help="write a JSONL span trace of the run to FILE",
    )
    parser.add_argument(
        "--metrics",
        action="store_true",
        help="print a metrics summary and Prometheus text dump",
    )
    parser.add_argument(
        "--profile",
        metavar="FILE",
        help=(
            "sample the live span stack and write a collapsed-stack "
            "profile (flamegraph input) to FILE"
        ),
    )


@contextlib.contextmanager
def _obs_scope(args: argparse.Namespace) -> Iterator[None]:
    """Install tracing/metrics for a command when its flags ask for it.

    On exit, writes the JSONL trace (``--trace FILE``) and prints the
    console summary plus a Prometheus dump (``--metrics``).
    """
    trace_path = getattr(args, "trace", None)
    profile_path = getattr(args, "profile", None)
    want_metrics = bool(getattr(args, "metrics", False))
    if not trace_path and not want_metrics and not profile_path:
        yield
        return
    tracer = obs.Tracer()
    registry = obs.MetricsRegistry()
    profiler = (
        obs.SpanProfiler(tracer).start() if profile_path else None
    )
    try:
        with obs.use_tracer(tracer), obs.use_metrics(registry):
            yield
    finally:
        # Flush even when the command dies mid-run (crash, Ctrl-C):
        # a partial trace of a failed session is the one you want most.
        if profiler is not None:
            profiler.stop()
            n_stacks = profiler.write_collapsed(profile_path)
            print(f"profile: {n_stacks} stack(s) -> {profile_path}")
        if trace_path:
            n_spans = obs.write_jsonl_trace(tracer, trace_path)
            print(f"trace: {n_spans} span(s) -> {trace_path}")
        if want_metrics:
            summary = obs.console_summary(tracer, registry)
            if summary:
                print(summary)
            print(obs.prometheus_text(registry), end="")


def _cmd_build_db(args: argparse.Namespace) -> int:
    from repro.datasets.build import build_rendered_database

    database = build_rendered_database(
        DatasetConfig(
            total_images=args.images,
            n_categories=args.categories,
            seed=args.seed,
        )
    )
    database.save(args.out)
    print(
        f"built {database.size} images / "
        f"{len(database.category_names)} categories -> {args.out}"
    )
    return 0


def _cmd_build_rfs(args: argparse.Namespace) -> int:
    from repro.index.serialize import save_rfs

    database = ImageDatabase.load(args.db)
    rfs = RFSStructure.build(
        database.features,
        RFSConfig(node_max_entries=args.node_max),
        seed=args.seed,
        method=args.method,
        build=_build_config_from_args(args),
        progress=_progress_printer(args),
    )
    save_rfs(rfs, args.out)
    n_nodes = sum(1 for _ in rfs.iter_nodes())
    print(
        f"built RFS ({args.method}): {rfs.height} levels, {n_nodes} "
        f"nodes, {rfs.representative_fraction():.1%} representatives "
        f"-> {args.out}"
    )
    return 0


def _cmd_build_store(args: argparse.Namespace) -> int:
    from repro.index.serialize import load_rfs
    from repro.store import FeatureStore

    database = ImageDatabase.load(args.db)
    if args.rfs:
        rfs = load_rfs(args.rfs, database.features)
    else:
        rfs = RFSStructure.build(
            database.features,
            seed=args.seed,
            build=_build_config_from_args(args),
            progress=_progress_printer(args),
        )
    store = FeatureStore.build(rfs)
    store.save(args.out)
    print(
        f"built store: {store.n_rows} rows x {store.dims} dims "
        f"({store.dtype.name}, {store.nbytes / 1e6:.1f} MB, "
        f"{len(store.spans)} node spans) -> {args.out}"
    )
    return 0


def _cmd_query(args: argparse.Namespace) -> int:
    from repro.eval.metrics import gtir, precision_at
    from repro.eval.oracle import SimulatedUser

    database = ImageDatabase.load(args.db)
    qd_config = _qd_config_from_args(args)
    engine = _build_serving_engine(args, database, qd_config)
    session_store = _session_store_from_args(args)
    if session_store is not None:
        engine.attach_session_store(session_store)
    from repro.datasets.queryset import get_query

    query = get_query(args.query)
    user = SimulatedUser(database, query, seed=args.seed)
    k = args.k or database.ground_truth_size(
        sorted(query.relevant_categories())
    )
    with _obs_scope(args), engine:
        result = engine.run_scripted(
            user.mark, k=k, rounds=args.rounds, seed=args.seed
        )
    print(result.describe())
    ids = result.flatten(k)
    print(f"precision = {precision_at(ids, database, query):.3f}")
    print(f"GTIR      = {gtir(ids, database, query):.3f}")
    return 0


def _cmd_info(args: argparse.Namespace) -> int:
    database = ImageDatabase.load(args.db)
    named = [
        name for name in database.category_names
        if not name.startswith("distractor_")
    ]
    print(f"images:      {database.size}")
    print(f"dims:        {database.dims}")
    print(f"categories:  {len(database.category_names)} "
          f"({len(named)} named)")
    print(f"named:       {', '.join(named[:8])}"
          + (" ..." if len(named) > 8 else ""))
    return 0


def _cmd_index(args: argparse.Namespace) -> int:
    """``index verify``: audit invariants of a saved structure."""
    from repro.index.incremental import validate_structure
    from repro.index.serialize import load_rfs

    database = ImageDatabase.load(args.db)
    rfs = load_rfs(args.rfs, database.features)
    _attach_store_from_args(rfs, args)
    problems = validate_structure(rfs)
    if problems:
        print(f"FAIL: {len(problems)} problem(s) in {args.rfs}")
        for problem in problems:
            print(f"  - {problem}")
        return 1
    n_nodes = sum(1 for _ in rfs.iter_nodes())
    print(
        f"OK: {n_nodes} nodes, {rfs.features.shape[0]} rows, "
        "all invariants hold"
    )
    return 0


def _cmd_interactive(args: argparse.Namespace) -> int:
    from repro.core.console import run_console_session

    database = ImageDatabase.load(args.db)
    qd_config = _qd_config_from_args(args)
    engine = _single_node_engine(args, database, qd_config)
    session_store = _session_store_from_args(args)
    if session_store is not None:
        engine.attach_session_store(session_store)
    with _obs_scope(args), engine:
        run_console_session(
            engine,
            k=args.k,
            rounds=args.rounds,
            screens=args.screens,
            seed=args.seed,
        )
    return 0


def _cmd_experiment(args: argparse.Namespace) -> int:
    from repro.eval import experiments

    database = ImageDatabase.load(args.db)
    with _obs_scope(args):
        if args.name == "fig1":
            print(experiments.run_figure1(database).format())
            return 0
        if args.name == "scalability":
            result = experiments.run_scalability(
                (2000, 4000, 8000), n_queries=25, seed=args.seed
            )
            print(result.format_figure10())
            print(result.format_figure11())
            return 0
        engine = _single_node_engine(
            args, database, _qd_config_from_args(args)
        )
        with engine:
            if args.name == "table1":
                print(
                    experiments.run_table1(
                        engine, trials=args.trials, seed=args.seed
                    ).format()
                )
            elif args.name == "table2":
                print(
                    experiments.run_table2(
                        engine, trials=args.trials, seed=args.seed
                    ).format()
                )
            elif args.name == "cases":
                print(
                    experiments.run_case_studies(
                        engine, seed=args.seed
                    ).format()
                )
    return 0


def _cmd_store(args: argparse.Namespace) -> int:
    """``store info``: describe a saved feature-store directory."""
    from repro.store import FeatureStore

    store = FeatureStore.open(args.path, mode="memmap")
    try:
        print(f"path:              {args.path}")
        print(f"rows x dims:       {store.n_rows} x {store.dims}")
        print(f"dtype:             {store.dtype.name}")
        print(f"bytes:             {store.nbytes}")
        print(f"node spans:        {len(store.spans)}")
    finally:
        store.close()
    return 0


def _cmd_sessions(args: argparse.Namespace) -> int:
    """``sessions list|expire``: operate on an externalized store."""
    import time as _time

    store = _session_store_from_args(args)
    assert store is not None  # --session-store is required here
    with store:
        if args.sessions_command == "expire":
            swept = store.sweep_expired(args.ttl)
            print(
                f"expired {len(swept)} session(s) idle > {args.ttl:.0f}s"
                + (": " + ", ".join(swept) if swept else "")
            )
            return 0
        ids = store.list_ids()
        if not ids:
            print("no checkpointed sessions")
            return 0
        now = _time.time()
        print(f"{'session':34s} {'round':>5s} {'marked':>6s} "
              f"{'branches':>8s} {'idle s':>8s}")
        for session_id in ids:
            state = store.get(session_id)
            print(
                f"{session_id:34s} {state.round:5d} "
                f"{len(state.marked):6d} {state.n_subqueries:8d} "
                f"{now - state.updated_unix:8.0f}"
            )
    return 0


def _cmd_bench(args: argparse.Namespace) -> int:
    """``bench report``: trend table + optional baseline diff."""
    from pathlib import Path

    from repro.obs.bench import (
        BenchSchemaError,
        compare_dirs,
        format_comparison,
        load_bench_dir,
    )

    try:
        currents = load_bench_dir(args.results)
    except BenchSchemaError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if not currents:
        print(
            f"no BENCH_*.json under {args.results} — run the "
            "benchmarks/ entry points first",
            file=sys.stderr,
        )
        return 1

    for name, result in sorted(currents.items()):
        print(f"{name}  (sha {result.git_sha[:12]})")
        for metric, entry in sorted(result.metrics.items()):
            direction = {True: "higher", False: "lower"}.get(
                entry.get("higher_is_better"), "info"
            )
            gate = "gated" if entry.get("compare") else "info"
            print(
                f"  {metric:24s} p50 {entry['p50']:10.3f} "
                f"{entry.get('unit', ''):5s} "
                f"p95 {entry['p95']:10.3f}  [{direction}, {gate}]"
            )
        print()

    if not Path(args.baseline).is_dir():
        print(f"(no baseline directory {args.baseline}; skipping diff)")
        return 0
    try:
        deltas, missing = compare_dirs(
            args.baseline,
            args.results,
            include_times=args.include_times,
        )
    except BenchSchemaError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(format_comparison(deltas, missing))
    n_regressions = sum(d.regression for d in deltas) + len(missing)
    if n_regressions:
        print(
            f"\n{n_regressions} regression(s) vs {args.baseline}",
            file=sys.stderr,
        )
        return 1
    print(f"\n{len(deltas)} metric(s) within the noise gate")
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    from repro.config import ServeConfig
    from repro.serve import QDServer, serve_tcp

    database = ImageDatabase.load(args.db)
    qd_config = _qd_config_from_args(args)
    serve_config = ServeConfig(
        workers=args.serve_workers,
        queue_limit=args.queue_limit,
        default_deadline_s=args.deadline_s,
        drain_timeout_s=args.drain_timeout_s,
    )
    engine = _build_serving_engine(args, database, qd_config)
    session_store = _session_store_from_args(args)
    assert session_store is not None  # --session-store is required
    engine.attach_session_store(session_store)
    core = QDServer(engine, serve_config)
    shape = (
        f"{args.shards} shard(s)" if args.shards else "single-node"
    )
    print(
        f"serving {database.size} images ({shape}, "
        f"{serve_config.workers} workers, queue {serve_config.queue_limit},"
        f" deadline {serve_config.default_deadline_s:g}s) on "
        f"{args.host}:{args.port} — one JSON request per line, "
        "Ctrl-C or SIGTERM drains and exits"
    )
    with _obs_scope(args), engine, _sigterm_interrupts():
        serve_tcp(core, args.host, args.port)
    return 0


@contextlib.contextmanager
def _sigterm_interrupts() -> Iterator[None]:
    """Make SIGTERM take Ctrl-C's path out of ``serve``.

    The handler raises ``KeyboardInterrupt``, which ``serve_tcp`` turns
    into a drain and ``core.close()``; the ``with`` around it then
    closes the engine and its worker pool.  SIGTERM's default action
    ends the process outright, which leaves the fork pool of a
    ``--executor process`` server running without a parent.
    """

    def interrupt(signum: int, frame: object) -> None:
        raise KeyboardInterrupt

    previous = signal.signal(signal.SIGTERM, interrupt)
    try:
        yield
    finally:
        signal.signal(signal.SIGTERM, previous)


_COMMANDS = {
    "build-db": _cmd_build_db,
    "build-rfs": _cmd_build_rfs,
    "build-store": _cmd_build_store,
    "query": _cmd_query,
    "info": _cmd_info,
    "index": _cmd_index,
    "store": _cmd_store,
    "interactive": _cmd_interactive,
    "experiment": _cmd_experiment,
    "sessions": _cmd_sessions,
    "serve": _cmd_serve,
    "bench": _cmd_bench,
}


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI entry point; returns a process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
