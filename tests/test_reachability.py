"""The reachability gate: every module under src/repro/ has an entry point.

``scripts/check_reachable.py`` reads the imports of the CLI, the
benchmarks and the scripts, follows them (lazy re-exports resolved)
and fails on a module none of them reaches.  The gate must pass on the
repository and fail on a copy of it with one orphan planted.
"""

from __future__ import annotations

import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SCRIPT = ROOT / "scripts" / "check_reachable.py"


def _gate(root: Path) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(SCRIPT), "--root", str(root)],
        capture_output=True, text=True, timeout=120,
    )


@pytest.fixture()
def copy(tmp_path):
    for part in ("src/repro", "benchmarks", "scripts"):
        shutil.copytree(
            ROOT / part, tmp_path / part,
            ignore=shutil.ignore_patterns("__pycache__", "results"),
        )
    return tmp_path


def test_every_module_is_reached_or_allow_listed():
    done = _gate(ROOT)
    assert done.returncode == 0, done.stderr


def test_a_planted_orphan_fails_the_gate(copy):
    (copy / "src/repro/index/orphan.py").write_text("VALUE = 1\n")
    # ... and so does an allow-listed module that is gone.
    (copy / "src/repro/datasets/corel_loader.py").unlink()
    done = _gate(copy)
    assert done.returncode == 1
    assert "repro.index.orphan: no entry point imports it" in done.stderr
    assert "repro.datasets.corel_loader: allow-listed" in done.stderr


def test_a_lazy_re_export_counts_as_an_import(copy):
    # The planted module is imported by nobody; an entry point reads a
    # name its package re-exports from it, which imports it.
    (copy / "src/repro/index/orphan.py").write_text("VALUE = 1\n")
    init = copy / "src/repro/index/__init__.py"
    init.write_text(
        init.read_text().replace(
            '"repro.index.rstar": ("RStarTree",),',
            '"repro.index.rstar": ("RStarTree",),\n'
            '        "repro.index.orphan": ("VALUE",),',
        )
    )
    (copy / "scripts/reader.py").write_text(
        "from repro import index\n\nindex.VALUE\n"
    )
    done = _gate(copy)
    assert done.returncode == 0, done.stderr
