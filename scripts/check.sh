#!/usr/bin/env bash
# Pre-merge gate: lint (ruff) + the tier-1 test suite.
#
# Usage: scripts/check.sh [--cov] [extra pytest args...]
#
#   --cov   run pytest with coverage (pytest-cov) and, when running in a
#           GitHub Actions job, append the coverage table to the
#           workflow's step summary.
#
# Locally, missing tools degrade to a skip with a warning; under CI=1
# (set by the workflow) a missing tool is a hard failure, so the gate
# can never silently go soft on CI.
set -euo pipefail

cd "$(dirname "$0")/.."

WITH_COV=0
if [[ "${1:-}" == "--cov" ]]; then
    WITH_COV=1
    shift
fi

if command -v ruff >/dev/null 2>&1; then
    echo "== ruff =="
    ruff check src tests benchmarks
elif python -c "import ruff" >/dev/null 2>&1; then
    echo "== ruff (module) =="
    python -m ruff check src tests benchmarks
elif [[ "${CI:-}" == "1" ]]; then
    echo "== ruff not installed but CI=1; failing ==" >&2
    exit 1
else
    echo "== ruff not installed; skipping lint =="
fi

# Structural gates (plain git grep): decisions that live in one place
# stay there.  No worker pool is built anywhere under src/ — every
# parallel leg (build, final round, shard fan-out) lost to the calling
# thread on a 2-CPU host and was deleted — and a scan result enters
# a result cache only through repro.cache.scan_and_publish, the single
# reader of the invalidation epoch that keeps a scan racing a removal
# from re-publishing what the removal evicted.  A final round has one
# driver (core.ranking.execute_final_round, the only caller of
# merge_outcomes) and a leaf scan one block reader: the coalescing batch
# scheduler and its read_block= hook lost to that path on their own
# benchmark and were deleted.  Nothing under src/ reads a file with
# allow_pickle=True: a database, index or store file is data, and an
# unpickled one can run any code its author wrote into it.  The disk
# model counts page accesses (the paper's §5.2.2 accounting) and
# charges no time: the simulated device sleep, and the build knobs that
# only fed benches built on it, were deleted once every speedup they
# backed lost at zero latency.  Nothing in the index or the clustering
# sleeps.  Session text is produced only by the store that keeps it: a
# text backend encodes once per put, the in-memory one only when its
# text is read, so no encode_state( call site lives outside
# src/repro/sessionstore/ to put an encode back on the feedback round.
echo "== structure =="
# forbid MESSAGE... -- GIT_GREP_ARGS...
#
# fails the gate when `git grep GIT_GREP_ARGS` finds anything: the
# matches are printed, then the MESSAGE words joined by spaces.
forbid() {
    local message=()
    while (( $# )) && [[ "$1" != "--" ]]; do
        message+=("$1")
        shift
    done
    if (( $# == 0 )); then
        echo "usage: forbid MESSAGE... -- GIT_GREP_ARGS..." >&2
        exit 2
    fi
    shift
    if git grep "$@"; then
        echo "== ${message[*]} ==" >&2
        exit 1
    fi
}
forbid "no thread or process pool under src/" -- \
    -nE '(Thread|Process)PoolExecutor' -- src/
epoch_sites=$(git grep -nE '\.invalidation_epoch\(\)' -- src/ || true)
if [[ $(grep -c . <<<"$epoch_sites") != 1 ]]; then
    echo "$epoch_sites" >&2
    echo "== invalidation_epoch() must have exactly one call site" \
        "(repro.cache.scan_and_publish) ==" >&2
    exit 1
fi
merge_sites=$(git grep -n 'merge_outcomes(' -- src/ \
    | grep -v 'def merge_outcomes(' || true)
if [[ $(grep -c . <<<"$merge_sites") != 1 ]]; then
    echo "$merge_sites" >&2
    echo "== merge_outcomes() must have exactly one call site" \
        "(core.ranking.execute_final_round) ==" >&2
    exit 1
fi
forbid "no read_block hook in src/: _scan_leaves reads its own blocks" -- \
    -n 'read_block' -- src/
forbid "no allow_pickle=True in src/: files are read without unpickling" -- \
    -nE 'allow_pickle *= *True' -- src/
# The feature store has one number format, float32 rows, and a leaf
# scan one kernel, point_distances over the exact rows.  The float64
# store dtype (set only by tests), the f16 scan tier and then the int8
# one (each slower than float32 on a cold round: the exact re-rank cost
# more than the smaller read saved) were deleted along with the
# plumbing that carried the choice through the engine, the shard
# router, compaction and the cache key.  -w keeps uint8 (image pixels)
# legal.
forbid "the store holds float32 rows only" -- \
    -nE -e 'store_dtype|STORE_DTYPES|_delta_kernel_dtype' \
    -e "float16|[\"']f16[\"']" -- src/
forbid "no int8 scan tier: a leaf scan reads the exact float32 rows" -- \
    -nwi int8 -- src/
forbid "no quantized scan tier, approximate kernel or re-rank phase" -- \
    -ni -e quantiz -e approx_point_distances -e dq_sqnorms \
    -e RERANK_MARGIN -- src/
# Each write path has one implementation.  Sessions are kept in memory
# or in SQLite: the JSON-directory store, whose conditional write two
# processes could both win, was deleted.  Index mutations and
# compactions serialize on one lock: the epoch guard's read lease
# had no caller, and the retired-generation window is the constant
# generations.MAX_RETIRED, not a setting only tests changed.
forbid "one session store per durability, one mutation lock, no" \
    "retired-window setting" -- \
    -nE 'jsondir|JSONDirectorySessionStore|EpochGuard|max_retired' \
    -- src/
# (Each name is spelled with one bracketed letter so this file does
# not match its own pattern.)
forbid "no simulated device sleep and no build knob that fed it" -- \
    -nE -e 'page_read_latenc[y]|read_bandwidth_bytes_per_[s]' \
    -e 'charge_i[o]|kmeans_minibatc[h]|kmeans_chun[k]' \
    -- src/ benchmarks/
# One k-means: kmeans() is the B = 1 call of kmeans_stacked, and each
# rank's equal-shape nodes cluster in one stacked call.  No one-problem
# Lloyd run, scatter-add update, separate distance kernel or per-node
# selection task comes back beside it.
forbid "one k-means implementation, one selection task per group" -- \
    -nE -e '_single_run|_DistanceRows|pairwise_sq_distances' \
    -e 'np\.add\.at\(|_node_reps_task' -- src/
# The index reaches the exact distance kernel only through
# clustering.kmeans.DistanceFilter: every side, farthest pick, nearest
# candidate and balanced cut is a certified decision that runs the
# kernel on the near-ties alone, so no index module runs it on every row.
forbid "the index reaches the exact kernel only through DistanceFilter" -- \
    -n 'sq_distances_into' -- src/repro/index/
forbid "nothing in the index or the clustering sleeps" -- \
    -n 'time\.sleep' -- src/repro/index/ src/repro/clustering/
# The offline build runs on the calling thread, the serial path being
# the reference: no build executor, worker count or frontier-parallel
# bisect is settable or defined, and the index and the clustering use
# no worker pool.
forbid "the offline build runs on the calling thread: no build executor" \
    "or worker setting, no parallel bisect or selection task" -- \
    -nE -e 'BuildConfig|build_executor' \
    -e 'build-executor|build_workers|build-workers' \
    -e 'INLINE_BISECT_THRESHOLD|_bisect_task|_BisectPayload' \
    -e '_RepsPayload|_group_reps_task|_balanced_bisect_parallel' \
    -- src/ benchmarks/
forbid "the index and the clustering import nothing from repro.exec" -- \
    -n 'repro\.exec' -- src/repro/index src/repro/clustering
# The final round runs its subqueries on the calling thread, through
# SerialSubqueryExecutor.run_subqueries once per finalize: the thread
# and process subquery executors lost to it on every row of their
# verdict (docs/ARCHITECTURE.md, "Query executor kinds") and were
# deleted with the executor settings and the fork pool.  So no executor
# argument, property or one-valued label comes back from the engine
# down to the merge, and nothing ships spans, metrics or disk-access
# deltas home from a child process or keys a fork snapshot on an
# epoch.  -w keeps SerialSubqueryExecutor and merge_delta_ranked legal.
forbid "the final round runs on the calling thread: no subquery" \
    "executor kinds or settings, no fork pool or grafting" -- \
    -nwE -e 'ThreadedSubqueryExecutor|ProcessSubqueryExecutor' \
    -e 'SubqueryExecutor|resolve_executor|EXECUTOR_KINDS' \
    -e 'fork_available|_adopt_shared|_process_entry|_graft|_fork_key' \
    -e 'mutation_epoch|span_from_dict|to_payload|merge_payload' \
    -e 'merge_state|delta_marker|delta_since|merge_delta' \
    -e 'ProcessPoolExecutor|multiprocessing' -- src/
# The shard router scans its covering shards one after another on the
# request's own thread: the thread fan-out lost to that loop on every
# row of its verdict (docs/ARCHITECTURE.md, "Shard fan-out kinds") and
# went with the pool behind it, its fan-out setting and the tracer's
# span adoption, whose only caller was that pool.
forbid "the shard scatter runs on the calling thread: no worker pool," \
    "fan-out setting or pool kinds" -- \
    -nwE 'WorkerPool|POOL_KINDS|default_worker_count|parallel_fanout' \
    -- src/
forbid "no span adoption: spans nest on the thread that opens them" -- \
    -nE '\.adopt\(' -- src/
# Every request runs on the thread that brought it: QDServer.request()
# is the one way an op executes, and a caller with no free slot waits
# on the server's condition.  The worker threads, submit() and the
# futures that carried their answers back were a second execution path
# no benchmark workload reached, and were deleted.
forbid "the serving core starts no thread: no submit(), worker loop or" \
    "future in serve/server.py" -- \
    -nE 'def submit\(|_worker_loop|concurrent\.futures|Future\b' \
    -- src/repro/serve/server.py
# Nothing under src/ forks or pickles a store, a cache or a session
# store, so none keys state on the process id or defines pickling hooks.
forbid "no fork guard or pickling hook in the session store, the" \
    "feature store or the result cache" -- \
    -nE 'getpid|__getstate__|__setstate__' -- src/repro/sessionstore \
    src/repro/store src/repro/cache
forbid "no executor argument, property or label in src/" -- \
    -nE -e 'executor=|\.executor\b|"executor"' -- src/
# The CLI has no setting with one legal value: --executor serial,
# --workers 0, --store-tier f32 and build-store --tier f32 named the
# one model left after their alternatives were deleted, and went with
# the constant that listed the tiers.  A removed flag is an argparse
# usage error (exit 2).
forbid "no one-valued CLI setting: no executor, worker-count or tier" \
    "flag" -- -nwE 'STORE_TIERS|store_tier|_add_exec_flags' -- src/
forbid "no --executor, --workers, --store-tier or --tier flag in the CLI" \
    -- -nE '"--(executor|workers|store-tier|tier)"' -- src/repro/cli.py
# One regression system: benchmarks/e2e with BENCHMARK.json measures
# what a client sees, and tier-1 pins the work and the parities.  The
# in-process serving benches, their record writer, the 35 % record
# comparator and its committed baselines were deleted once a tier-1
# check that trips on the same planted regression held each metric
# they gated (docs/ARCHITECTURE.md, "Serving bench family").  (Each
# name is spelled with one bracketed letter so this file does not
# match its own pattern; the class before the harness name keeps the
# e2e benchmark's own self-test file, whose name ends in it, legal.)
forbid "one regression system: no benchmark-record writer, comparator" \
    "or tiny-scale switch" -- \
    -nE -e 'repro\.obs\.benc[h]|compare_dir[s]|(^|[^[:alnum:]])_harnes[s]' \
    -e 'bench_compar[e]|BenchResul[t]|QD_BENC[H]_TINY|BENC[H]_' \
    -- src/ benchmarks/ scripts/ tests/ .github/
# A run's time is recorded once, in its trace: --profile writes the
# trace's collapsed stacks (exact self time per span path), and the
# Figure 10/11 phases are read from round spans.  The sampling profiler
# thread, the tracer's cross-thread stack registry it read, and the
# TimingLog / Stopwatch timers were deleted.
forbid "one record of a run's time, the trace: no sampling profiler," \
    "stack registry or timing log in src/" -- \
    -nE -e 'SpanProfiler|open_stacks|TimingLog|Stopwatch' \
    -e 'read_rss_bytes|utils\.timing|obs\.profile' -- src/
# Compaction is a write: the write that reaches the threshold compacts
# under the index's one write lock, and compact() holds that lock from
# snapshot to swap, so no write lands in between and none is replayed.
# The background compactor thread and its serializing lock were
# deleted.  The TCP front's accept and connection threads are the only
# threads src/ starts.
forbid "only the TCP front starts a thread in src/" -- \
    -n 'threading\.Thread(' -- src/ ':!src/repro/serve/tcp.py'
forbid "compaction runs inline under the write lock: no background" \
    "compactor" -- \
    -nE 'compact_background|_compact_serialize|_compact_thread|qd-compactor' \
    -- src/
# Nothing under src/ pickles a ranking or the disk counter.
forbid "no pickling hook in the rankings or the index" -- \
    -nE '__reduce__|__getstate__|__setstate__' -- src/repro/retrieval \
    src/repro/index
forbid "encode_state() is called only under src/repro/sessionstore/" -- \
    -n 'encode_state(' -- src/ ':!src/repro/sessionstore/'
# The final round ranks by one metric, plain Euclidean distance (the
# paper's §3.3–3.4; user-set feature importance is §6 future work):
# no per-dimension weights ride from the session through the executors,
# the shard router and the cache key down to the scan kernels.  The
# weighted kernel is kept, uncalled, only because the e2e benchmark's
# tracing TARGETS still wraps it.
forbid "the final round ranks by one metric: no dim_weights path" -- \
    -nE -e 'dim_weights|FamilyWeights' \
    -e 'approx_weighted_point_distances|weighted_err_bound' -- src/
forbid "weighted_point_distances is defined in store/kernels.py and" \
    "called nowhere in src/" -- \
    -n 'weighted_point_distances' -- src/ ':!src/repro/store/kernels.py'
# The fused multipoint kernel has no served or paper caller either:
# MultipointQuery.distances always runs its validated per-representative
# loop (its trusted= shortcut had no caller), and the kernel is kept,
# uncalled and unexported, for the same tracing TARGETS entry.
forbid "multipoint_distances is defined in store/kernels.py and called" \
    "nowhere in src/" -- \
    -n 'multipoint_distances' -- src/ ':!src/repro/store/kernels.py'
# One ranking type from the leaf scan to the wire: a RankedList holds
# (ids, scores) arrays, and rank() in src/repro/retrieval/topk.py is the
# one code that orders them (ascending score, ties by id).  No list of
# (score, id) tuples or RankedItem objects is re-sorted with a lambda,
# and the tuple-era helpers and the boxed-pair cache charge stay
# deleted.
forbid "results are ordered only by rank() in retrieval/topk.py" -- \
    -nE "sort\(key=lambda (pair|it)" -- src
forbid "no top_pairs, top_k or RANKED_PAIR_BYTES: rank() and RankedList" \
    "replace them" -- \
    -nw -e top_pairs -e top_k -e RANKED_PAIR_BYTES -- src
# One tree from build to scan: the RFS structure is the paper's R*-tree
# (method "rstar" builds it from index/rstar.py's bisect partition),
# and the global k-NN is a search from its root.  The second tree
# object graph, its bulk loads and the STR packer stay deleted.  (Each
# name is spelled with one bracketed letter so this file does not
# match its own pattern.)
forbid "one tree: no second R*-tree object graph, bulk load or STR" \
    "packer" -- \
    -nwE 'RStarTre[e]|bulk_loa[d]|bulk_load_st[r]|_str_til[e]' \
    -- src/ benchmarks/ examples/
# The paper's server-load claim has one form, the counted one: the
# work counts of the benchmark's served traffic, pinned by
# tests/test_work_counts.py.  The modelled forms (a deployment model
# that assumed subquery and leaf counts, a concurrent-user simulation
# that timed a modelled global scan) went with their gauges and span.
forbid "server load is counted, not modelled: no deployment model or" \
    "concurrent-user simulation in src/" -- \
    -nE -e 'simulate_concurrent_users|generate_workload|WorkloadSpec' \
    -e 'ConcurrencyReport|compare_deployments|DeploymentComparison' \
    -e 'SessionCost|ClientPayload|client_payload' \
    -e 'qd_server_capacity_multiplier' -- src/
# One opener assembles every CLI command's engine (cli._open_engine,
# its tree step cli._open_tree) and puts what it opens on main()'s
# one ExitStack; the seven per-command assembly helpers, which left
# session stores and mapped stores open, stay deleted.  So do a
# mutation setting with one value outside tests (compaction is
# always automatic), an MBR union nothing called, and the KMeans
# fit/predict wrapper nothing outside its tests used.
forbid "one CLI opener and one stack: no per-command engine assembly" \
    "helper, auto_compact setting, MBR.union_of or KMeans wrapper" -- \
    -nwE -e '_build_serving_engin[e]|_sharded_engin[e]|_single_node_engin[e]' \
    -e '_attach_store_from_arg[s]|_cache_config_from_arg[s]' \
    -e '_mutation_config_from_arg[s]|_session_store_from_arg[s]' \
    -e 'auto_compac[t]|union_o[f]|class KMean[s]' -- src/
# MBR.center had no caller outside its own test, and MBR.margin only
# the box's repr.
forbid "no MBR.center or MBR.margin" -- \
    -nE 'def (cente[r]|margi[n])\(|\.(cente[r]|margi[n])\(' -- src/
# A store scan scores √Σ(x − q)² directly (store.kernels).  The norm
# expansion ‖x‖² + ‖q‖² − 2·x·q lost the digits of rows far from the
# origin, and the row norms it cached (on FeatureStore, in meta.npz,
# in the delta view) had no other reader.  The build's k-means filter
# under src/repro/clustering keeps norms of its own.
forbid "the scan kernels compute distances directly: no cached row" \
    "norms in the store or the index" -- \
    -n -e 'sqnorm[s]' -- src/repro/store src/repro/index
forbid "no block_sqnorms parameter in src/" -- \
    -n -e 'block_sqnorm[s]' -- src/
# Every module under src/repro/ is imported by something the CLI, a
# benchmark or a script reaches (lazy re-exports resolved): a module
# only its own tests or an example import is code nothing serving or
# the paper needs.  The script's ALLOWED map names the exceptions.
if ! python scripts/check_reachable.py; then
    echo "== every module under src/repro/ has an entry point ==" >&2
    exit 1
fi
# No module imports a name it never uses (ruff's F401, read with the
# standard library so it runs where ruff is not installed), in any of
# the repo's Python trees.
if ! python scripts/check_unused_imports.py src tests benchmarks scripts \
        examples; then
    echo "== no unused import in src/ tests/ benchmarks/ scripts/" \
        "examples/ ==" >&2
    exit 1
fi

PYTEST_ARGS=(-x -q)
if [[ "$WITH_COV" == "1" ]]; then
    if python -c "import pytest_cov" >/dev/null 2>&1; then
        PYTEST_ARGS+=(--cov=repro --cov-report=term)
    elif [[ "${CI:-}" == "1" ]]; then
        echo "== pytest-cov not installed but CI=1; failing ==" >&2
        exit 1
    else
        echo "== pytest-cov not installed; running without coverage =="
        WITH_COV=0
    fi
fi

echo "== pytest (tier 1) =="
if [[ "$WITH_COV" == "1" && -n "${GITHUB_STEP_SUMMARY:-}" ]]; then
    PYTHONPATH=src python -m pytest "${PYTEST_ARGS[@]}" "$@" \
        | tee /tmp/qd-check-pytest.log
    {
        echo '### Coverage'
        echo '```'
        sed -n '/^---------- coverage/,/^TOTAL/p' /tmp/qd-check-pytest.log
        echo '```'
    } >> "$GITHUB_STEP_SUMMARY"
else
    PYTHONPATH=src python -m pytest "${PYTEST_ARGS[@]}" "$@"
fi

# The no-skip gates.  Each suite below guards a contract whose breakage
# would be silent (wrong rankings, an unreadable store), so its tests
# must actually run: a skip — a collection filter or a platform guard
# someone adds later, a narrower -k, a renamed class — fails the gate.
#
#   run_gate NAME FILE K_EXPR [CLASS...]
#
# runs FILE's tests matching K_EXPR and requires that some passed, that
# none were skipped, and that every CLASS shows up in the PASSED lines.
run_gate() {
    local name="$1" file="$2" k_expr="$3"
    shift 3
    local log="/tmp/qd-check-${name// /-}.log"
    local report=-rs
    if (( $# )); then
        report=-rsp
    fi
    echo "== ${name} gate =="
    PYTHONPATH=src python -m pytest "$file" -k "$k_expr" -q "$report" \
        | tee "$log"
    if ! grep -qE '[1-9][0-9]* passed' "$log"; then
        echo "== no ${name} test ran; failing ==" >&2
        exit 1
    fi
    local parity_class
    for parity_class in "$@"; do
        if ! grep -qE "^PASSED .*::${parity_class}::" "$log"; then
            echo "== no ${parity_class} test passed; failing ==" >&2
            exit 1
        fi
    done
    if grep -qE '[1-9][0-9]* skipped' "$log"; then
        echo "== ${name} tests were skipped; failing ==" >&2
        exit 1
    fi
}

# The on-disk store format: save -> memmap/inmem load roundtrip.
run_gate "store roundtrip" tests/test_store.py Roundtrip
# The staleness contract: a cached subquery served across a mutation, a
# compaction, or a store swap would silently corrupt rankings.
run_gate "cache invalidation" tests/test_cache.py Invalidation
# The offline build runs on the calling thread, and every build must
# equal — node ids, members, boxes, representatives, registry order —
# the structure digests recorded before the build stopped going through
# the R*-tree's object graph.  The same selection holds the build kernels to
# their reference forms in tests/reference_build.py: the stacked k-means
# (B equal-shape problems, every restart at once, one generator per
# problem) against one-problem runs problem by problem — centroids,
# labels, inertia, n_iter and generator state — and k-means++ seeding,
# the bisect's split, its balanced cut and the nearest-candidate search,
# whose closest distances, sides, farthest pick, cut order and nearest
# rows a certified float filter decides (a BLAS product with a rounding
# margin, the exact distance kernel on every near-tie), against bodies
# that run the exact kernel on every row — on integer grids, duplicated
# rows, an offset of 1e6 and scales 1e-160 / 1e150 / 1e153, with the
# exact fallback counted on near-ties and past the overflow limit.
# Both classes must show up as passed.
run_gate "build parity" tests/test_build_parallel.py Parity \
    TestBuildDigestParity TestKernelReferenceParity
# A session checkpointed after any round and resumed — even by a fresh
# process — continues bit-identically, for every store backend; the
# same selection covers the hot copy (a worker may skip the rebuild
# only when that changes nothing), so both classes must show up as
# passed.
run_gate "session resume" tests/test_sessionstore.py Parity \
    TestResumeParity TestHotPathParity
# The leaf scan against its references: bit-identical rankings between
# the inmem and memmap backings, and, under tombstones and through the
# final round's top-up, the plain block scan (rankings and leaves read)
# and the brute-force float64 k-NN.
run_gate "scan parity" tests/test_store.py Parity \
    TestParity TestTombstoneScanParity
# Rankings from a sharded router bit-identical to single-node for every
# shard count, partition strategy, store backing, and cache state,
# including sessions resumed across routers with different shard counts.
run_gate "sharded parity" tests/test_shard.py Parity
# The array ranking path against its tuple-and-set reference
# (tests/reference_ranking.py): random outcome sets with shared ids, the
# top-up and promotion passes, live delta rows with tombstones and a
# 2-shard gather, id for id and bit for bit; both classes must pass.
run_gate "ranking oracle" tests/test_ranking_oracle.py Oracle \
    TestMergeOracle TestScanOracle
# The work the benchmark's traffic costs the server — k-NN calls,
# kernel calls, rows scanned, subqueries, reply bytes, session-store
# puts and gets — equal to tests/work_counts.json at zero tolerance,
# and none of it in a feedback round (the paper's §3); both classes
# must show up as passed.
run_gate "work counts" tests/test_work_counts.py "Baseline or PaperClaims" \
    TestBaseline TestPaperClaims
# Rankings over main + delta bit-identical to a from-scratch rebuild of
# the same item set, across store attachment, shard counts, and
# pre/post-compaction cache states.
run_gate "mutation parity" tests/test_generations.py Parity
