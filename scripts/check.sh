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

# The feature-store roundtrip tests guard the on-disk format; they must
# actually run (a skip — e.g. a collection filter or a platform guard
# someone adds later — would let format breaks through silently).
echo "== store roundtrip gate =="
ROUNDTRIP_LOG=/tmp/qd-check-roundtrip.log
PYTHONPATH=src python -m pytest tests/test_store.py -k Roundtrip \
    -q -rs | tee "$ROUNDTRIP_LOG"
if ! grep -qE '[1-9][0-9]* passed' "$ROUNDTRIP_LOG"; then
    echo "== no store roundtrip test ran; failing ==" >&2
    exit 1
fi
if grep -qE '[1-9][0-9]* skipped' "$ROUNDTRIP_LOG"; then
    echo "== store roundtrip tests were skipped; failing ==" >&2
    exit 1
fi

# The cache-invalidation tests guard the staleness contract (a cached
# subquery served across an incremental mutation or a store swap would
# silently corrupt rankings); like the roundtrip gate, they must run.
echo "== cache invalidation gate =="
INVALIDATION_LOG=/tmp/qd-check-invalidation.log
PYTHONPATH=src python -m pytest tests/test_cache.py -k Invalidation \
    -q -rs | tee "$INVALIDATION_LOG"
if ! grep -qE '[1-9][0-9]* passed' "$INVALIDATION_LOG"; then
    echo "== no cache invalidation test ran; failing ==" >&2
    exit 1
fi
if grep -qE '[1-9][0-9]* skipped' "$INVALIDATION_LOG"; then
    echo "== cache invalidation tests were skipped; failing ==" >&2
    exit 1
fi

# The build-parity tests guard the offline pipeline's core contract (a
# parallel build must be bit-identical to the serial one — node ids,
# members, boxes, representatives); like the gates above, they must
# actually run, not be skipped away.
echo "== build parity gate =="
PARITY_LOG=/tmp/qd-check-build-parity.log
PYTHONPATH=src python -m pytest tests/test_build_parallel.py -k Parity \
    -q -rs | tee "$PARITY_LOG"
if ! grep -qE '[1-9][0-9]* passed' "$PARITY_LOG"; then
    echo "== no build parity test ran; failing ==" >&2
    exit 1
fi
if grep -qE '[1-9][0-9]* skipped' "$PARITY_LOG"; then
    echo "== build parity tests were skipped; failing ==" >&2
    exit 1
fi

# The session-resume parity tests guard the externalized-state contract
# (a session checkpointed after any round and resumed — even by a fresh
# process — must continue bit-identically, for every store backend and
# executor); like the gates above, they must actually run.  The same
# selection covers the hot copy (a worker may skip the rebuild only when
# that changes nothing): both classes must show up as passed, so a
# narrower -k or a rename cannot quietly drop either.
echo "== session resume gate =="
RESUME_LOG=/tmp/qd-check-session-resume.log
PYTHONPATH=src python -m pytest tests/test_sessionstore.py -k Parity \
    -q -rsp | tee "$RESUME_LOG"
if ! grep -qE '[1-9][0-9]* passed' "$RESUME_LOG"; then
    echo "== no session resume test ran; failing ==" >&2
    exit 1
fi
for PARITY_CLASS in TestResumeParity TestHotPathParity; do
    if ! grep -qE "^PASSED .*::${PARITY_CLASS}::" "$RESUME_LOG"; then
        echo "== no ${PARITY_CLASS} test passed; failing ==" >&2
        exit 1
    fi
done
if grep -qE '[1-9][0-9]* skipped' "$RESUME_LOG"; then
    echo "== session resume tests were skipped; failing ==" >&2
    exit 1
fi

# The quantized-parity tests guard the compressed scan tiers' core
# contract (f16/int8 rankings bit-identical to pure float32 across
# executors, backings, and cached reruns); like the gates above, they
# must actually run, not be skipped away.
echo "== quantized parity gate =="
QUANT_LOG=/tmp/qd-check-quantized-parity.log
PYTHONPATH=src python -m pytest tests/test_store_quantized.py -k Parity \
    -q -rs | tee "$QUANT_LOG"
if ! grep -qE '[1-9][0-9]* passed' "$QUANT_LOG"; then
    echo "== no quantized parity test ran; failing ==" >&2
    exit 1
fi
if grep -qE '[1-9][0-9]* skipped' "$QUANT_LOG"; then
    echo "== quantized parity tests were skipped; failing ==" >&2
    exit 1
fi

# The sharded-parity tests guard the scatter-gather contract (rankings
# from a sharded router bit-identical to single-node for every shard
# count, partition strategy, executor, store backing, and cache state,
# including sessions resumed across routers with different shard
# counts); like the gates above, they must actually run.
echo "== sharded parity gate =="
SHARD_LOG=/tmp/qd-check-shard-parity.log
PYTHONPATH=src python -m pytest tests/test_shard.py -k Parity \
    -q -rs | tee "$SHARD_LOG"
if ! grep -qE '[1-9][0-9]* passed' "$SHARD_LOG"; then
    echo "== no sharded parity test ran; failing ==" >&2
    exit 1
fi
if grep -qE '[1-9][0-9]* skipped' "$SHARD_LOG"; then
    echo "== sharded parity tests were skipped; failing ==" >&2
    exit 1
fi

# The mutation-parity tests guard the generational delta contract
# (rankings over main + delta bit-identical to a from-scratch rebuild
# of the same item set, across executors, store tiers, shard counts,
# and pre/post-compaction cache states); like the gates above, they
# must actually run, not be skipped away.
echo "== mutation parity gate =="
MUTATION_LOG=/tmp/qd-check-mutation-parity.log
PYTHONPATH=src python -m pytest tests/test_generations.py -k Parity \
    -q -rs | tee "$MUTATION_LOG"
if ! grep -qE '[1-9][0-9]* passed' "$MUTATION_LOG"; then
    echo "== no mutation parity test ran; failing ==" >&2
    exit 1
fi
if grep -qE '[1-9][0-9]* skipped' "$MUTATION_LOG"; then
    echo "== mutation parity tests were skipped; failing ==" >&2
    exit 1
fi
