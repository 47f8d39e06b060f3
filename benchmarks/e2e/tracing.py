"""Per-layer traced run: spans from wrappers the benchmark installs.

The traced run is in-process and sequential: the same engine the
``serve`` command builds is assembled through public API, put behind
``QDServer`` and ``serve_tcp(port=0, background=True)``, and one client
socket replays the first dialogues of the workload's plan.  Timing
wrappers around the layers' public functions record spans (name, start,
end, parent, request id) in memory; the layer metrics are derived from
them afterwards.  Nothing inside ``src/`` is edited — a wrapper is a
module or class attribute swapped for the duration of the replay.

A wrapped function that no longer exists does not fail the run: the
metrics that need it are reported as ``null`` with a warning.
"""

from __future__ import annotations

import functools
import importlib
import json
import statistics
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from loadgen import Client, DialogueRecord, Writer, replay_dialogue
from workloads import (
    INDEX_SEED,
    PARTITION,
    WORKLOADS,
    Dialogue,
    Workload,
    build_plan,
)


# ----------------------------------------------------------------------
# spans
# ----------------------------------------------------------------------
@dataclass(eq=False)
class Span:
    id: int
    name: str
    start: float
    end: float = 0.0
    parent: Optional[int] = None
    req: int = 0
    attrs: Dict[str, Any] = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


def covered(intervals: Sequence[Tuple[float, float]]) -> float:
    """Total length of the union of ``(start, end)`` intervals."""
    total = 0.0
    reach = float("-inf")
    for start, end in sorted(intervals):
        if end <= reach:
            continue
        total += end - max(start, reach)
        reach = end
    return total


def self_times(spans: Sequence[Span]) -> Dict[int, float]:
    """Span id → duration minus the part its child spans cover.

    Children may run on other threads and overlap each other (a shard
    fan-out), so the covered part is the union of their intervals,
    clipped to the parent.
    """
    children: Dict[int, List[Tuple[float, float]]] = {}
    by_id = {span.id: span for span in spans}
    for span in spans:
        parent = by_id.get(span.parent) if span.parent is not None else None
        if parent is not None:
            children.setdefault(parent.id, []).append(
                (max(span.start, parent.start), min(span.end, parent.end))
            )
    return {
        span.id: span.duration
        - covered([c for c in children.get(span.id, []) if c[1] > c[0]])
        for span in spans
    }


class Recorder:
    """In-memory span sink shared by every wrapper of one replay.

    Each thread nests its own spans.  Work that hops threads (the
    admission queue, the shard fan-out pool) is linked by *hand-off*
    spans: a span opened on a thread with nothing open adopts the
    innermost open hand-off span as its parent.  With one request in
    flight at a time that is exact.
    """

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self.current_req = 0
        self._local = threading.local()
        self._handoffs: List[Span] = []
        self._lock = threading.Lock()

    def open(self, name: str, handoff: bool) -> Span:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        with self._lock:
            if stack:
                parent = stack[-1].id
            elif self._handoffs:
                parent = self._handoffs[-1].id
            else:
                parent = None
            span = Span(
                id=len(self.spans), name=name, start=0.0,
                parent=parent, req=self.current_req,
            )
            self.spans.append(span)
            if handoff:
                self._handoffs.append(span)
        stack.append(span)
        span.start = time.perf_counter()
        return span

    def close(self, span: Span, handoff: bool) -> None:
        span.end = time.perf_counter()
        self._local.stack.pop()
        if handoff:
            with self._lock:
                self._handoffs.remove(span)


Hook = Callable[[Span, tuple, dict, Any], None]


def traced(
    fn: Callable,
    name: str,
    recorder: Recorder,
    *,
    handoff: bool = False,
    hook: Optional[Hook] = None,
) -> Callable:
    """``fn`` with a span around every call (and ``hook`` after it)."""

    @functools.wraps(fn)
    def wrapper(*args: Any, **kwargs: Any) -> Any:
        span = recorder.open(name, handoff)
        try:
            result = fn(*args, **kwargs)
        finally:
            recorder.close(span, handoff)
        if hook is not None:
            hook(span, args, kwargs, result)
        return result

    return wrapper


# ----------------------------------------------------------------------
# what gets wrapped
# ----------------------------------------------------------------------
def _hook_response(span: Span, args: tuple, kwargs: dict, result: Any) -> None:
    span.attrs.update(
        queue_wait_s=result.queue_wait_s,
        service_s=result.service_s,
        status=result.status,
    )


def _hook_len(span: Span, args: tuple, kwargs: dict, result: Any) -> None:
    span.attrs["bytes"] = len(result)


def _hook_tasks(span: Span, args: tuple, kwargs: dict, result: Any) -> None:
    tasks = kwargs["tasks"] if "tasks" in kwargs else args[2]
    span.attrs["tasks"] = len(tasks)


def _hook_hit(span: Span, args: tuple, kwargs: dict, result: Any) -> None:
    span.attrs["hit"] = result is not None


def _hook_count(span: Span, args: tuple, kwargs: dict, result: Any) -> None:
    span.attrs["count"] = int(result)


def _hook_kernel(span: Span, args: tuple, kwargs: dict, result: Any) -> None:
    block = kwargs["block"] if "block" in kwargs else args[0]
    span.attrs["rows"] = int(block.shape[0])
    # computed from rows x dims x itemsize, not read off a device
    span.attrs["bytes"] = int(block.shape[0] * block.shape[1]) * int(
        block.dtype.itemsize
    )


def _hook_delta_rows(
    span: Span, args: tuple, kwargs: dict, result: Any
) -> None:
    delta_view = getattr(args[0], "delta_view", None)
    view = delta_view() if delta_view is not None else None
    span.attrs["delta_rows"] = 0 if view is None else int(view.n_delta)


@dataclass(frozen=True)
class Target:
    """One public function to wrap: where it lives, what to call it."""

    span: str
    module: str
    attr: str  # "function" or "Class.method"
    handoff: bool = False
    hook: Optional[Hook] = None


_SESSION = "repro.core.session"
_STORE = "repro.store.feature_store"
_KERNELS = "repro.store.kernels"
_GEN = "repro.index.generations"
_CACHE = "repro.cache.result_cache"
_SSTORE = "repro.sessionstore.base"
_RFS = "repro.index.rfs"

TARGETS: Tuple[Target, ...] = (
    Target("serve.tcp.core_request", "repro.serve.tcp",
           "QDTCPServer.core_request"),
    Target("serve.tcp.encode", "repro.serve.tcp", "response_to_json",
           hook=_hook_len),
    Target("serve.server.request", "repro.serve.server", "QDServer.request",
           handoff=True, hook=_hook_response),
    Target("core.clientserver.handle", "repro.core.clientserver",
           "SessionFrontEnd.handle"),
    Target("core.engine.open_session", "repro.core.engine",
           "QueryDecompositionEngine.open_session"),
    Target("core.engine.resume_session", "repro.core.engine",
           "QueryDecompositionEngine.resume_session"),
    Target("sessionstore.put", _SSTORE, "SessionStore.put"),
    Target("sessionstore.get", _SSTORE, "SessionStore.get"),
    Target("sessionstore.delete", _SSTORE, "SessionStore.delete"),
    Target("core.session_state.encode", _SSTORE, "encode_state",
           hook=_hook_len),
    Target("core.session_state.decode", _SSTORE, "decode_state"),
    Target("core.session.display", _SESSION, "FeedbackSession.display"),
    Target("core.session.submit", _SESSION, "FeedbackSession.submit"),
    Target("core.session.finalize", _SESSION, "FeedbackSession.finalize"),
    Target("core.session.checkpoint", _SESSION, "FeedbackSession.checkpoint"),
    Target("core.session.capture", _SESSION, "FeedbackSession.capture"),
    Target("core.session.restore", _SESSION, "FeedbackSession.restore"),
    Target("core.ranking.plan", "repro.core.ranking", "plan_final_round"),
    Target("core.ranking.merge", "repro.core.ranking", "merge_outcomes"),
    Target("exec.run_subqueries", "repro.exec.executors",
           "SerialSubqueryExecutor.run_subqueries", hook=_hook_tasks),
    Target("cache.get", _CACHE, "SubqueryResultCache.get", hook=_hook_hit),
    Target("cache.put", _CACHE, "SubqueryResultCache.put"),
    Target("cache.snapshot", _CACHE, "SubqueryResultCache.snapshot"),
    Target("cache.invalidate", _CACHE, "SubqueryResultCache.invalidate_nodes",
           hook=_hook_count),
    Target("shard.router.localized_knn", "repro.shard.engine",
           "ShardedRFS.localized_knn", handoff=True),
    Target("shard.scan", "repro.shard.engine", "Shard.localized_knn"),
    Target("index.rfs.localized_knn", _RFS, "RFSStructure.localized_knn",
           hook=_hook_delta_rows),
    Target("index.rfs.leaves_of_items", _RFS, "RFSStructure.leaves_of_items"),
    Target("store.delta.merge", _RFS, "RFSStructure.merge_delta_ranked"),
    Target("store.scan_block", _STORE, "FeatureStore.scan_block"),
    Target("store.node_block", _STORE, "FeatureStore.node_block"),
    Target("store.stats_snapshot", _STORE, "FeatureStore.stats_snapshot"),
    Target("store.kernel.point", _KERNELS, "point_distances",
           hook=_hook_kernel),
    Target("store.kernel.weighted_point", _KERNELS,
           "weighted_point_distances", hook=_hook_kernel),
    Target("store.kernel.multipoint", _KERNELS, "multipoint_distances",
           hook=_hook_kernel),
    Target("index.generations.insert", _GEN, "GenerationController.insert"),
    Target("index.generations.remove", _GEN, "GenerationController.remove"),
    Target("index.generations.compact", _GEN, "GenerationController.compact"),
)
#: ``json.loads`` of the request line, reached through the ``json``
#: global of the TCP module (patching ``json.loads`` itself would also
#: time the client's parsing).
DECODE_SPAN = "serve.tcp.decode"
KERNEL_SPANS = tuple(t.span for t in TARGETS if t.hook is _hook_kernel)
BLOCK_SPANS = ("store.scan_block", "store.node_block")


class _JsonShim:
    """The ``json`` module with a traced ``loads``."""

    def __init__(self, loads: Callable) -> None:
        self.loads = loads

    def __getattr__(self, name: str) -> Any:
        return getattr(json, name)


class Instrumentation:
    """Installs the wrappers; restores every attribute on exit."""

    def __init__(self, recorder: Recorder) -> None:
        self.recorder = recorder
        self.missing: List[str] = []  # span names that could not be wrapped
        self.warnings: List[str] = []
        self._undo: List[Tuple[Any, str, Any]] = []

    def _swap(self, owner: Any, attr: str, value: Any) -> None:
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def _install(self, target: Target) -> None:
        module = importlib.import_module(target.module)
        owner: Any = module
        *path, attr = target.attr.split(".")
        for part in path:
            owner = getattr(owner, part)
        raw = owner.__dict__[attr]  # KeyError: not defined here any more
        make = functools.partial(
            traced, name=target.span, recorder=self.recorder,
            handoff=target.handoff, hook=target.hook,
        )
        if isinstance(raw, classmethod):
            self._swap(owner, attr, classmethod(make(raw.__func__)))
        elif isinstance(raw, staticmethod):
            self._swap(owner, attr, staticmethod(make(raw.__func__)))
        else:
            wrapped = make(raw)
            self._swap(owner, attr, wrapped)
            if owner is module:
                # ``from module import fn`` copies elsewhere in the
                # program must time the same calls
                for other in list(sys.modules.values()):
                    name = getattr(other, "__name__", "")
                    if other is module or not name.startswith("repro"):
                        continue
                    for key, value in list(vars(other).items()):
                        if value is raw:
                            self._swap(other, key, wrapped)

    def __enter__(self) -> "Instrumentation":
        for target in TARGETS:
            try:
                self._install(target)
            except (ImportError, AttributeError, KeyError) as exc:
                self.missing.append(target.span)
                self.warnings.append(
                    f"{target.module}.{target.attr} cannot be wrapped "
                    f"({type(exc).__name__}: {exc}); metrics that need "
                    f"span {target.span!r} are null"
                )
        try:
            tcp = importlib.import_module("repro.serve.tcp")
            if vars(tcp).get("json") is not json:
                raise AttributeError("repro.serve.tcp has no json global")
            shim = _JsonShim(traced(json.loads, DECODE_SPAN, self.recorder))
            self._swap(tcp, "json", shim)
        except (ImportError, AttributeError) as exc:
            self.missing.append(DECODE_SPAN)
            self.warnings.append(f"request decode cannot be wrapped ({exc})")
        return self

    def __exit__(self, *exc_info: object) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)


# ----------------------------------------------------------------------
# in-process replay
# ----------------------------------------------------------------------
def build_engine(workload: Workload, database: Any, workdir: Path) -> Any:
    """The engine ``repro-cbir serve`` builds for this workload."""
    from repro.config import CacheConfig, MutationConfig
    from repro.core.engine import QueryDecompositionEngine
    from repro.sessionstore import make_session_store
    from repro.shard import ShardedEngine

    cache = CacheConfig(enabled=True) if workload.cache else None
    if workload.shards:
        engine = ShardedEngine.build(
            database, shards=workload.shards, partition=PARTITION,
            seed=INDEX_SEED, store="inmem", cache=cache,
        )
    else:
        engine = QueryDecompositionEngine.build(
            database, seed=INDEX_SEED, store="inmem", cache=cache
        )
    if workload.writes:
        engine.enable_mutations(
            MutationConfig(compact_threshold=workload.compact_threshold),
            seed=INDEX_SEED,
        )
    engine.attach_session_store(
        make_session_store(
            workload.session_store, str(workdir / "trace-sessions.db")
        )
    )
    return engine


@dataclass
class Request:
    req: int
    op: str
    sent: float
    rtt: float
    status: str
    measured: bool


@dataclass
class Replay:
    requests: List[Request]
    dialogues: List[DialogueRecord]
    spans: List[Span]
    cache_stats: Optional[Dict[str, int]]


def replay(
    workload: Workload,
    database: Any,
    plan: Sequence[Dialogue],
    workdir: Path,
    *,
    n_warmup: int,
    recorder: Optional[Recorder],
) -> Replay:
    """Build, serve and replay ``plan`` over one socket, sequentially.

    ``recorder`` stamps the spans of whatever wrappers the caller has
    installed with request ids; without one the very same replay runs
    bare (for the overhead).
    """
    from repro.serve import QDServer, serve_tcp

    rec = recorder or Recorder()
    requests: List[Request] = []
    records: List[DialogueRecord] = []
    engine = build_engine(workload, database, workdir)
    session_store = engine.session_store
    tcp = None
    try:
        tcp = serve_tcp(QDServer(engine), port=0, background=True)
        with Client(tcp.server_address[1]) as client:
            if recorder is not None:
                client.loads = traced(json.loads, "client.parse", rec)
            measured = False

            def call(payload: Dict[str, Any]) -> Tuple[Dict[str, Any], float]:
                rec.current_req += 1
                reply, rtt = client.call(payload)
                requests.append(
                    Request(
                        rec.current_req, payload["op"], client.sent_at,
                        rtt, reply.get("status", "?"), measured,
                    )
                )
                return reply, rtt

            writer = Writer()
            cache_before: Optional[Dict[str, int]] = None
            for n, dialogue in enumerate(plan):
                if n == n_warmup:
                    measured = True
                    cache = engine.result_cache
                    cache_before = cache.snapshot() if cache else None
                record = replay_dialogue(call, dialogue, database.labels)
                writer.issue(call, dialogue)
                if measured:
                    records.append(record)
            cache = engine.result_cache
            cache_stats = None
            if cache is not None and cache_before is not None:
                after = cache.snapshot()
                cache_stats = {
                    k: after[k] - cache_before[k]
                    for k in after if k in cache_before
                }
    finally:
        if tcp is not None:
            tcp.close()
        engine.close()
        if session_store is not None:
            session_store.close()
    return Replay(requests, records, rec.spans, cache_stats)


# ----------------------------------------------------------------------
# layer metrics
# ----------------------------------------------------------------------
class LayerMetrics:
    """Derives the per-layer table from one traced replay."""

    def __init__(
        self,
        traced_run: Replay,
        bare_run: Replay,
        missing: Sequence[str],
        single_node_rows: Optional[float] = None,
    ) -> None:
        self.missing = set(missing)
        self.requests = [r for r in traced_run.requests if r.measured]
        measured = {r.req for r in self.requests}
        self.spans = [s for s in traced_run.spans if s.req in measured]
        self.self_s = self_times(traced_run.spans)
        self.by_name: Dict[str, List[Span]] = {}
        for span in self.spans:
            self.by_name.setdefault(span.name, []).append(span)
        self.by_req: Dict[int, List[Span]] = {}
        for span in self.spans:
            self.by_req.setdefault(span.req, []).append(span)
        self.finalize_reqs = [r.req for r in self.requests if r.op == "finalize"]
        self.n_dialogues = len(traced_run.dialogues)
        self.bare = [r for r in bare_run.requests if r.measured]
        self.cache_stats = traced_run.cache_stats
        self.single_node_rows = single_node_rows

    # -- helpers -------------------------------------------------------
    def _need(self, *names: str) -> bool:
        return not self.missing.intersection(names)

    def _unless_missing(
        self, names: Sequence[str], value: float
    ) -> Optional[float]:
        """``value``, or null when a span it was derived from is gone.

        Safe to compute ``value`` first: an unwrapped function just
        leaves no spans behind.
        """
        return value if self._need(*names) else None

    @staticmethod
    def _median(values: Sequence[float], scale: float = 1.0) -> float:
        return scale * statistics.median(values) if values else 0.0

    def median_us(self, name: str, *, self_time: bool = False,
                  reqs: Optional[Sequence[int]] = None) -> Optional[float]:
        if not self._need(name):
            return None
        spans = self.by_name.get(name, [])
        if reqs is not None:
            wanted = set(reqs)
            spans = [s for s in spans if s.req in wanted]
        values = [
            self.self_s[s.id] if self_time else s.duration for s in spans
        ]
        return self._median(values, 1e6)

    def per_finalize(self, names: Sequence[str], value: Callable[[Span], float],
                     *, median: bool = False) -> Optional[float]:
        """Sum of ``value`` over the named spans of each finalize."""
        if not self._need(*names):
            return None
        if not self.finalize_reqs:
            return 0.0
        sums = [
            sum(value(s) for s in self.by_req.get(req, []) if s.name in names)
            for req in self.finalize_reqs
        ]
        return statistics.median(sums) if median else statistics.fmean(sums)

    def median_attr(self, name: str, attr: str) -> Optional[float]:
        if not self._need(name):
            return None
        return self._median(
            [s.attrs[attr] for s in self.by_name.get(name, []) if attr in s.attrs]
        )

    def count_per_dialogue(self, name: str) -> Optional[float]:
        if not self._need(name):
            return None
        return len(self.by_name.get(name, [])) / max(1, self.n_dialogues)

    def total_rows(self) -> float:
        return float(
            sum(
                s.attrs.get("rows", 0)
                for name in KERNEL_SPANS
                for s in self.by_name.get(name, [])
            )
        )

    # -- the table -----------------------------------------------------
    def compute(self) -> Dict[str, Optional[float]]:
        core = {
            s.req: s for s in self.by_name.get("serve.tcp.core_request", [])
        }
        served = {
            s.req: s for s in self.by_name.get("serve.server.request", [])
        }
        m: Dict[str, Optional[float]] = {}
        us = self.median_us

        # serve.tcp
        m["serve.tcp.decode_us"] = us(DECODE_SPAN)
        m["serve.tcp.encode_us"] = us("serve.tcp.encode")
        m["serve.tcp.encode_finalize_us"] = us(
            "serve.tcp.encode", reqs=self.finalize_reqs
        )
        finalizes = set(self.finalize_reqs)
        m["serve.tcp.response_bytes"] = self._unless_missing(
            ["serve.tcp.encode"],
            self._median(
                [
                    s.attrs["bytes"] + 1  # the newline
                    for s in self.by_name.get("serve.tcp.encode", [])
                    if s.req in finalizes
                ]
            ),
        )
        m["serve.tcp.wire_us"] = self._unless_missing(
            ["serve.tcp.core_request"],
            self._median(
                [
                    r.rtt - core[r.req].duration
                    for r in self.requests if r.req in core
                ],
                1e6,
            ),
        )

        # serve.server
        m["serve.server.queue_wait_us"] = self._unless_missing(
            ["serve.server.request"],
            self._median(
                [s.attrs["queue_wait_s"] for s in served.values()], 1e6
            ),
        )
        m["serve.server.handoff_us"] = self._unless_missing(
            ["serve.server.request", "serve.tcp.core_request"],
            self._median(
                [
                    core[req].duration
                    - s.attrs["queue_wait_s"] - s.attrs["service_s"]
                    for req, s in served.items() if req in core
                ],
                1e6,
            ),
        )
        m["serve.server.failed_share"] = 100.0 * (
            sum(r.status != "ok" for r in self.requests)
            / max(1, len(self.requests))
        )

        # front end, engine, session storage, session logic
        m["core.clientserver.handle_self_us"] = us(
            "core.clientserver.handle", self_time=True
        )
        m["core.engine.resume_self_us"] = us(
            "core.engine.resume_session", self_time=True
        )
        for op in ("get", "put", "delete"):
            m[f"sessionstore.{op}_us"] = us(f"sessionstore.{op}")
        m["sessionstore.gets_per_dialogue"] = self.count_per_dialogue(
            "sessionstore.get"
        )
        m["sessionstore.puts_per_dialogue"] = self.count_per_dialogue(
            "sessionstore.put"
        )
        m["sessionstore.record_bytes"] = self.median_attr(
            "core.session_state.encode", "bytes"
        )
        m["core.session_state.encode_us"] = us("core.session_state.encode")
        m["core.session_state.decode_us"] = us("core.session_state.decode")
        m["core.session.display_self_us"] = us(
            "core.session.display", self_time=True
        )
        m["core.session.submit_self_us"] = us(
            "core.session.submit", self_time=True
        )
        m["core.session.restore_us"] = us("core.session.restore")
        m["core.session.capture_us"] = us("core.session.capture")

        # final round
        m["core.ranking.plan_us"] = us("core.ranking.plan")
        m["core.ranking.merge_self_us"] = us(
            "core.ranking.merge", self_time=True
        )
        m["core.ranking.subqueries_per_finalize"] = self.per_finalize(
            ["exec.run_subqueries"], lambda s: s.attrs.get("tasks", 0)
        )
        m["exec.run_subqueries_self_us"] = us(
            "exec.run_subqueries", self_time=True
        )
        m["index.rfs.localized_knn_self_us"] = us(
            "index.rfs.localized_knn", self_time=True
        )
        m["index.rfs.knn_calls_per_finalize"] = self.per_finalize(
            ["index.rfs.localized_knn"], lambda s: 1
        )
        m["index.rfs.leaves_visited_per_finalize"] = self.per_finalize(
            BLOCK_SPANS, lambda s: 1
        )
        m["index.rfs.leaves_of_items_us"] = us("index.rfs.leaves_of_items")
        m["store.kernel_us_per_finalize"] = self.per_finalize(
            KERNEL_SPANS, lambda s: 1e6 * s.duration, median=True
        )
        m["store.kernel_calls_per_finalize"] = self.per_finalize(
            KERNEL_SPANS, lambda s: 1
        )
        m["store.rows_scanned_per_finalize"] = self.per_finalize(
            KERNEL_SPANS, lambda s: s.attrs.get("rows", 0)
        )
        m["store.bytes_scanned_per_finalize"] = self.per_finalize(
            KERNEL_SPANS, lambda s: s.attrs.get("bytes", 0)
        )
        rows = self.total_rows()
        kernel_s = sum(
            s.duration for n in KERNEL_SPANS for s in self.by_name.get(n, [])
        )
        m["store.kernel_ns_per_row"] = self._unless_missing(
            KERNEL_SPANS, 1e9 * kernel_s / rows if rows else 0.0
        )

        # shard router
        m["shard.fanout_self_us"] = us(
            "shard.router.localized_knn", self_time=True
        )
        ratios = []
        scans: Dict[int, List[float]] = {}
        for span in self.by_name.get("shard.scan", []):
            if span.parent is not None:
                scans.setdefault(span.parent, []).append(span.duration)
        for durations in scans.values():
            if len(durations) > 1:
                ratios.append(max(durations) / statistics.fmean(durations))
        m["shard.straggler_ratio"] = self._unless_missing(
            ["shard.scan", "shard.router.localized_knn"],
            self._median(ratios),
        )
        m["shard.scan_amplification"] = self._unless_missing(
            KERNEL_SPANS,
            rows / self.single_node_rows if self.single_node_rows else 0.0,
        )

        # result cache
        m["cache.get_us"] = us("cache.get")
        m["cache.put_us"] = us("cache.put")
        gets = self.by_name.get("cache.get", [])
        m["cache.hit_share"] = self._unless_missing(
            ["cache.get"],
            100.0 * sum(s.attrs.get("hit", False) for s in gets)
            / max(1, len(gets)),
        )
        m["cache.evictions"] = float(
            (self.cache_stats or {}).get("evictions", 0)
        )
        m["cache.invalidated_entries"] = self._unless_missing(
            ["cache.invalidate"],
            float(
                sum(
                    s.attrs.get("count", 0)
                    for s in self.by_name.get("cache.invalidate", [])
                )
            ),
        )

        # writes
        m["index.generations.insert_us"] = us("index.generations.insert")
        m["index.generations.remove_us"] = us("index.generations.remove")
        compact = us("index.generations.compact")
        m["index.generations.compact_ms"] = (
            None if compact is None else compact / 1000.0
        )
        m["index.generations.compactions"] = self._unless_missing(
            ["index.generations.compact"],
            float(len(self.by_name.get("index.generations.compact", []))),
        )
        m["store.delta.rows_at_scan"] = self.median_attr(
            "index.rfs.localized_knn", "delta_rows"
        )
        m["store.delta.merge_us"] = us("store.delta.merge")

        # the trace itself
        total_rtt = sum(r.rtt for r in self.requests)
        attributed = sum(
            covered(
                [
                    (max(s.start, r.sent), min(s.end, r.sent + r.rtt))
                    for s in self.by_req.get(r.req, [])
                    if s.end > r.sent and s.start < r.sent + r.rtt
                ]
            )
            for r in self.requests
        )
        m["trace.unattributed_share"] = (
            100.0 * (total_rtt - attributed) / total_rtt
        )
        bare_rtt = sum(r.rtt for r in self.bare)
        m["trace.overhead_share"] = 100.0 * (total_rtt - bare_rtt) / bare_rtt
        return m

    def layer_self_ms(self) -> Dict[str, float]:
        """Total self time per span name (sums to the attributed time)."""
        totals: Dict[str, float] = {}
        for span in self.spans:
            totals[span.name] = (
                totals.get(span.name, 0.0) + 1000.0 * self.self_s[span.id]
            )
        return dict(sorted(totals.items(), key=lambda kv: -kv[1]))

    def counts(self) -> Dict[str, int]:
        return {
            name: len(spans) for name, spans in sorted(self.by_name.items())
        }


def write_spans(path: Path, spans: Sequence[Span]) -> None:
    with path.open("w") as out:
        for span in spans:
            out.write(
                json.dumps(
                    {
                        "id": span.id, "name": span.name,
                        "start": span.start, "end": span.end,
                        "parent": span.parent, "req": span.req,
                        **span.attrs,
                    },
                    default=float,
                )
                + "\n"
            )


def trace_workload(
    workload: Workload,
    seed: int,
    database: Any,
    workdir: Path,
    *,
    n_dialogues: int,
    n_warmup: int,
    spans_path: Path,
) -> Dict[str, Any]:
    """Bare replay, traced replay, layer table (run.py's result shape).

    The measured spans are written to ``spans_path`` as JSON lines.
    """
    plan = build_plan(
        workload, seed, n_warmup + n_dialogues, database.features
    )

    def run(recorder: Optional[Recorder], which: Workload = workload) -> Replay:
        return replay(
            which, database, plan, workdir,
            n_warmup=n_warmup, recorder=recorder,
        )

    bare = run(None)
    recorder = Recorder()
    with Instrumentation(recorder) as instrumentation:
        traced_run = run(recorder)
        single_node_rows = None
        if workload.shards:
            # Rows the single-node scan reads for the same dialogues;
            # request ids keep counting, so its spans stay apart.
            single_node_rows = _kernel_rows(
                run(recorder, WORKLOADS["scan_wide"])
            )
    layers = LayerMetrics(
        traced_run, bare, instrumentation.missing, single_node_rows
    )
    write_spans(spans_path, layers.spans)
    failed = sum(r.status != "ok" for r in layers.requests)
    problems = (
        [f"{failed} traced request(s) were not ok"] if failed else []
    )
    return {
        "workload": workload.name,
        "seed": seed,
        "correct": not problems,
        "problems": problems,
        "attempted": len(layers.requests),
        "failed": failed,
        "metrics": layers.compute(),
        "detail": {
            "warnings": instrumentation.warnings,
            "dialogues": layers.n_dialogues,
            "finalizes": len(layers.finalize_reqs),
            "span_counts": layers.counts(),
            "layer_self_ms": layers.layer_self_ms(),
            "roundtrip_ms": 1000.0 * sum(r.rtt for r in layers.requests),
            "bare_roundtrip_ms": 1000.0 * sum(r.rtt for r in layers.bare),
        },
    }


def _kernel_rows(run: Replay) -> float:
    measured = {r.req for r in run.requests if r.measured}
    return float(
        sum(
            s.attrs.get("rows", 0)
            for s in run.spans
            if s.req in measured and s.name in KERNEL_SPANS
        )
    )
