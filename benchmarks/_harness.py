"""Shared emission harness for the perf benchmark entry points.

Every ``benchmarks/bench_*.py`` perf entry point reports through here,
in two formats at once:

* the human-readable rows appended to ``benchmarks/results/latest.txt``
  (unchanged legacy format, kept as a secondary artifact), and
* a schema-validated ``BENCH_<name>.json`` (:class:`BenchResult`)
  carrying the git sha, machine fingerprint, workload params, and each
  metric as a series with p50/p95 — the canonical record that
  ``scripts/bench_compare.py`` diffs against the committed baselines in
  ``benchmarks/baselines/``.

Schema (version 1)::

    {
      "schema_version": 1,
      "name": "store_layout",
      "created_unix": 1754600000.0,
      "git_sha": "eaa82fa...",
      "machine": {"hostname": ..., "platform": ..., "python": ...,
                  "cpu_count": ..., "numpy": ...},
      "params": {"n_images": 2000, "tiny": true, ...},
      "metrics": {
        "warm_speedup": {"values": [...], "p50": ..., "p95": ...,
                          "unit": "x", "higher_is_better": true,
                          "compare": true},
        ...
      }
    }

``compare: false`` marks a metric as informational (raw wall times are
machine-dependent, so by default only dimensionless ratios/rates gate
the build); the comparator skips it unless the baseline and current
machine fingerprints match.

Works identically from the pytest entry points and the fixture-free
``python benchmarks/bench_<name>.py`` scripts (both put this directory
on ``sys.path``).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import socket
import subprocess
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Union

import numpy as np

RESULTS_DIR = Path(__file__).parent / "results"
TINY_ENV = os.environ.get("QD_BENCH_TINY") == "1"

BENCH_SCHEMA_VERSION = 1

class BenchSchemaError(ValueError):
    """A benchmark-result JSON failed schema validation."""


def machine_fingerprint() -> Dict[str, Any]:
    """Identify the machine a result was measured on."""
    return {
        "hostname": socket.gethostname(),
        "platform": platform.platform(),
        "python": platform.python_version(),
        "cpu_count": os.cpu_count() or 0,
        "numpy": np.__version__,
    }


def current_git_sha(cwd: Optional[Union[str, Path]] = None) -> str:
    """The repo HEAD sha (``GITHUB_SHA`` or ``git rev-parse`` fallback)."""
    sha = os.environ.get("GITHUB_SHA")
    if sha:
        return sha
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            capture_output=True,
            text=True,
            cwd=str(cwd) if cwd else None,
            timeout=10,
        )
        if proc.returncode == 0:
            return proc.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    return "unknown"


@dataclass
class BenchResult:
    """One benchmark run's machine-readable record."""

    name: str
    params: Dict[str, Any] = field(default_factory=dict)
    metrics: Dict[str, Dict[str, Any]] = field(default_factory=dict)
    schema_version: int = BENCH_SCHEMA_VERSION
    created_unix: float = 0.0
    git_sha: str = "unknown"
    machine: Dict[str, Any] = field(default_factory=dict)

    @classmethod
    def new(cls, name: str, params: Optional[Dict[str, Any]] = None
            ) -> "BenchResult":
        """A result stamped with the current sha/machine/time."""
        return cls(
            name=name,
            params=dict(params or {}),
            created_unix=time.time(),
            git_sha=current_git_sha(),
            machine=machine_fingerprint(),
        )

    def record(
        self,
        metric: str,
        values: Union[float, Sequence[float]],
        *,
        unit: str = "",
        higher_is_better: Optional[bool] = None,
        compare: Optional[bool] = None,
        min_abs: Optional[float] = None,
    ) -> "BenchResult":
        """Record one metric series.

        ``values`` may be a scalar or a series (e.g. per-repeat
        timings); p50/p95 are computed here so downstream consumers
        never re-derive them.  ``compare`` defaults to True exactly when
        a direction (``higher_is_better``) is given — directionless
        metrics are informational.  ``min_abs`` optionally overrides the
        comparator's absolute-delta noise floor for this metric.
        """
        series = (
            [float(v) for v in values]
            if isinstance(values, (list, tuple, np.ndarray))
            else [float(values)]
        )
        if not series:
            raise ValueError(f"metric {metric!r}: empty value series")
        entry: Dict[str, Any] = {
            "values": series,
            "p50": float(np.percentile(series, 50)),
            "p95": float(np.percentile(series, 95)),
            "unit": unit,
            "higher_is_better": higher_is_better,
            "compare": (
                compare
                if compare is not None
                else higher_is_better is not None
            ),
        }
        if min_abs is not None:
            entry["min_abs"] = float(min_abs)
        self.metrics[metric] = entry
        return self

    def to_dict(self) -> Dict[str, Any]:
        return {
            "schema_version": self.schema_version,
            "name": self.name,
            "created_unix": self.created_unix,
            "git_sha": self.git_sha,
            "machine": dict(self.machine),
            "params": dict(self.params),
            "metrics": {k: dict(v) for k, v in self.metrics.items()},
        }

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "BenchResult":
        validate_bench_result(data)
        return cls(
            name=data["name"],
            params=dict(data.get("params", {})),
            metrics={
                k: dict(v) for k, v in data.get("metrics", {}).items()
            },
            schema_version=int(data["schema_version"]),
            created_unix=float(data.get("created_unix", 0.0)),
            git_sha=str(data.get("git_sha", "unknown")),
            machine=dict(data.get("machine", {})),
        )

    def write(self, results_dir: Union[str, Path]) -> Path:
        """Write ``BENCH_<name>.json`` under ``results_dir``."""
        results_dir = Path(results_dir)
        results_dir.mkdir(parents=True, exist_ok=True)
        path = results_dir / f"BENCH_{self.name}.json"
        data = self.to_dict()
        validate_bench_result(data)
        path.write_text(json.dumps(data, indent=2, sort_keys=True) + "\n")
        return path


def validate_bench_result(data: Any) -> None:
    """Raise :class:`BenchSchemaError` unless ``data`` fits the schema."""

    def fail(message: str) -> None:
        raise BenchSchemaError(f"bench result: {message}")

    if not isinstance(data, dict):
        fail(f"expected an object, got {type(data).__name__}")
    version = data.get("schema_version")
    if not isinstance(version, int) or version < 1:
        fail(f"bad schema_version {version!r}")
    if version > BENCH_SCHEMA_VERSION:
        fail(
            f"schema_version {version} is newer than supported "
            f"({BENCH_SCHEMA_VERSION})"
        )
    name = data.get("name")
    if not isinstance(name, str) or not name:
        fail(f"bad name {name!r}")
    for key in ("machine", "params", "metrics"):
        if not isinstance(data.get(key), dict):
            fail(f"{key!r} must be an object")
    if not isinstance(data.get("git_sha"), str):
        fail("'git_sha' must be a string")
    for metric, entry in data["metrics"].items():
        if not isinstance(entry, dict):
            fail(f"metric {metric!r} must be an object")
        values = entry.get("values")
        if (
            not isinstance(values, list)
            or not values
            or not all(isinstance(v, (int, float)) for v in values)
        ):
            fail(f"metric {metric!r}: 'values' must be a non-empty "
                 "number list")
        for stat in ("p50", "p95"):
            if not isinstance(entry.get(stat), (int, float)):
                fail(f"metric {metric!r}: missing numeric {stat!r}")
        if entry.get("higher_is_better") not in (True, False, None):
            fail(f"metric {metric!r}: bad 'higher_is_better'")
        if not isinstance(entry.get("compare", False), bool):
            fail(f"metric {metric!r}: 'compare' must be a bool")


def load_bench_result(path: Union[str, Path]) -> BenchResult:
    """Load and validate one ``BENCH_*.json`` file."""
    path = Path(path)
    try:
        data = json.loads(path.read_text())
    except json.JSONDecodeError as exc:
        raise BenchSchemaError(f"{path}: not valid JSON ({exc})") from exc
    try:
        return BenchResult.from_dict(data)
    except BenchSchemaError as exc:
        raise BenchSchemaError(f"{path}: {exc}") from exc


def load_bench_dir(directory: Union[str, Path]) -> Dict[str, BenchResult]:
    """Every ``BENCH_*.json`` under ``directory``, keyed by bench name."""
    out: Dict[str, BenchResult] = {}
    for path in sorted(Path(directory).glob("BENCH_*.json")):
        result = load_bench_result(path)
        out[result.name] = result
    return out


def tiny_arg_parser(description: str) -> argparse.ArgumentParser:
    """The shared ``--tiny`` CLI every fixture-free entry point uses."""
    parser = argparse.ArgumentParser(description=description)
    parser.add_argument(
        "--tiny",
        action="store_true",
        help="CI smoke scale (also via QD_BENCH_TINY=1)",
    )
    return parser


def emit(
    rows: List[str],
    result: Optional[BenchResult] = None,
    results_dir: Union[str, Path, None] = None,
) -> None:
    """Print ``rows``, append them to ``latest.txt``, write the JSON.

    ``result.write`` validates against the bench schema, so a malformed
    record fails the run instead of silently uploading garbage.
    """
    directory = Path(results_dir) if results_dir else RESULTS_DIR
    directory.mkdir(exist_ok=True)
    text = "\n".join(rows)
    print(text)
    with (directory / "latest.txt").open("a") as handle:
        handle.write(text + "\n\n")
    if result is not None:
        result.write(directory)
