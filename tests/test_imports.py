"""Import boundaries: what a server start compiles, and what it defers.

Package re-exports resolve on first attribute access and subcommand-only
dependencies are imported inside their subcommands, so ``serve`` compiles
none of the imaging, evaluation, baseline, feature-extraction, database
building or trace-export code, nor a worker pool, future, result cache
or query set it was not asked for (every request, its final round and a
sharded server's scatter over its shards run on the request's thread).
Each check runs in a fresh interpreter: this process has long imported
everything.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

import repro
from repro.datasets.build import build_synthetic_database

SRC = str(Path(repro.__file__).resolve().parents[1])

#: Modules (and packages, with everything under them) ``serve`` must not
#: import before its first reply.
DEFERRED = (
    "concurrent.futures",
    "multiprocessing",
    "repro.baselines",
    "repro.cache.result_cache",
    "repro.datasets.build",
    "repro.datasets.concepts",
    "repro.datasets.corel_loader",
    "repro.datasets.queryset",
    "repro.eval",
    "repro.features.color",
    "repro.features.edges",
    "repro.features.extractor",
    "repro.features.texture",
    "repro.imaging",
    "repro.obs.export",
)

#: Runs ``repro-cbir serve`` through ``cli.main`` with the accept loop
#: on a thread, and drives one dialogue over a real socket: modules
#: loaded at the first reply, and those the dialogue loaded after it.
SERVE_SCRIPT = """
import json, socket, sys
import repro.serve.tcp
from repro import cli

def serve_until_interrupted(server):
    server.serve_background()
    sock = socket.create_connection(server.server_address[:2], timeout=60)
    stream = sock.makefile("rw", encoding="utf-8")

    def call(**payload):
        stream.write(json.dumps(payload) + "\\n")
        stream.flush()
        reply = json.loads(stream.readline())
        assert reply["status"] == "ok", reply
        return reply["value"]

    sid = call(op="open", seed=4)
    at_first_reply = set(sys.modules)
    for _ in range(2):
        shown = call(op="display", session_id=sid, screens=2)
        call(op="submit", session_id=sid, relevant_ids=shown[:4])
    call(op="finalize", session_id=sid, k=40)
    sock.close()
    after_dialogue = set(sys.modules)
    server.close()
    print(json.dumps({
        "start": sorted(at_first_reply),
        "dialogue": sorted(after_dialogue - at_first_reply),
    }))

repro.serve.tcp.QDTCPServer.serve_until_interrupted = serve_until_interrupted
sys.exit(cli.main(sys.argv[1:]))
"""

EXPORTS_SCRIPT = """
import importlib, json, pkgutil, types
import repro

# Every submodule first: a re-exported name must survive its namesake
# submodule being imported before anyone read the name.
packages = ["repro"]
for info in pkgutil.walk_packages(repro.__path__, "repro."):
    importlib.import_module(info.name)
    if info.ispkg:
        packages.append(info.name)
bad = []
for name in packages:
    package = importlib.import_module(name)
    for export in package.__all__:
        value = getattr(package, export, None)
        if value is None or isinstance(value, types.ModuleType):
            bad.append(f"{name}.{export}")
print(json.dumps(bad))
"""


def _run(script: str, *args: str) -> dict:
    env = dict(os.environ, PYTHONPATH=SRC)
    done = subprocess.run(
        [sys.executable, "-c", textwrap.dedent(script), *args],
        env=env, capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.strip().splitlines()[-1])


@pytest.fixture(scope="module")
def db_path(tmp_path_factory):
    path = tmp_path_factory.mktemp("imports") / "db.npz"
    build_synthetic_database(400, n_categories=30, seed=3).save(path)
    return path


@pytest.mark.parametrize("store", ["memory", "sqlite"])
def test_serve_start_defers_what_serving_never_runs(db_path, tmp_path, store):
    seen = _run(
        SERVE_SCRIPT, "serve", "--db", str(db_path), "--seed", "3",
        "--port", "0", "--session-store", store,
        "--session-path", str(tmp_path / "sessions.db"),
    )
    loaded = [
        module for module in seen["start"]
        if any(
            module == deferred or module.startswith(deferred + ".")
            for deferred in DEFERRED
        )
    ]
    assert loaded == []
    # ... and nothing moved into the requests: a display, submit or
    # finalize imports no module the start did not.
    assert seen["dialogue"] == []
    # ``np.unique`` imports numpy.ma (16–24 ms of start CPU) on its first
    # call; serving deduplicates by sorting, so no part of it loads it.
    assert "numpy.ma" not in seen["start"] + seen["dialogue"]


def test_sharded_serve_scatters_without_a_thread_pool(db_path):
    # k = 300 of 400 images: the finalize scans a node both shards hold
    # leaves of, so the scatter has two shards to visit.
    seen = _run(
        SERVE_SCRIPT.replace("k=40", "k=300"),
        "serve", "--db", str(db_path), "--seed", "3", "--port", "0",
        "--session-store", "memory", "--shards", "2",
    )
    assert "concurrent.futures" not in seen["start"]
    assert "concurrent.futures" not in seen["dialogue"]


def test_every_exported_name_resolves():
    assert _run(EXPORTS_SCRIPT) == []
