"""The unused-import gate: no module under src/ imports a name it never uses.

``scripts/check_unused_imports.py`` reads each module's imports and the
names it uses, with the standard library alone.  The gate must pass on
the repository and fail on a file with one unused import planted.
"""

from __future__ import annotations

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SCRIPT = ROOT / "scripts" / "check_unused_imports.py"


def _gate(*paths: Path) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(SCRIPT), *map(str, paths)],
        capture_output=True, text=True, timeout=120,
    )


def test_src_has_no_unused_import():
    done = _gate(ROOT / "src")
    assert done.returncode == 0, done.stderr


def test_a_planted_unused_import_fails_the_gate(tmp_path):
    module = tmp_path / "planted.py"
    module.write_text(
        "from __future__ import annotations\n"
        "import os.path\n"
        "from typing import TYPE_CHECKING, List, Optional\n"
        "import json  # noqa: F401 - imported for its side effect\n"
        "if TYPE_CHECKING:\n"
        "    from decimal import Decimal\n"
        "__all__ = ['List']\n"
        "def f(x: 'Decimal') -> int:\n"
        "    return len(os.path.sep)\n"
    )
    done = _gate(module)
    assert done.returncode == 1
    assert done.stderr.splitlines() == [
        f"{module}:3: Optional imported but unused"
    ]
