#!/usr/bin/env python
"""Fail when a module under src/repro/ is reached by no entry point.

The entry points are the ``repro-cbir`` CLI (``repro.cli``), every
benchmark (``benchmarks/*.py`` and ``benchmarks/e2e/*.py``) and every
script (``scripts/*.py``).  Imports are read from the source, never
run: ``import a.b``, ``from a.b import c`` and
``importlib.import_module("a.b")`` with a literal name.  Importing
``a.b.c`` also runs the ``__init__`` of ``a`` and ``a.b``, and a name
that a package re-exports through ``repro._lazy.lazy_exports`` resolves
to the module its map names.  Tests and examples are not entry points:
a module only they import is code nothing serving or the paper needs.

    python scripts/check_reachable.py [--root DIR]

Exit status 0 when every module is reached or allow-listed below, 1
when some module is neither (each is printed), or when an allow-listed
module is gone or reached (the list must not outlive its reasons).
"""

from __future__ import annotations

import argparse
import ast
import sys
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Set, Tuple

#: Modules kept although no entry point imports them, with the reason.
ALLOWED: Dict[str, str] = {
    "repro.datasets.corel_loader": (
        "loads the paper's own Corel collection; unreached only because "
        "no Corel files ship with the checkout"
    ),
}


def module_files(src: Path) -> Dict[str, Path]:
    """Dotted module name -> source file, for every module of ``repro``."""
    files = {}
    for path in sorted((src / "repro").rglob("*.py")):
        parts = path.relative_to(src).with_suffix("").parts
        if parts[-1] == "__init__":
            parts = parts[:-1]
        files[".".join(parts)] = path
    return files


def lazy_map(tree: ast.AST) -> Dict[str, str]:
    """Re-exported name -> defining module, from a ``lazy_exports`` call."""
    for node in ast.walk(tree):
        if (
            isinstance(node, ast.Call)
            and getattr(node.func, "id", None) == "lazy_exports"
        ):
            exports = ast.literal_eval(node.args[1])
            return {
                name: module
                for module, names in exports.items()
                for name in names
            }
    return {}


def _dotted(node: ast.AST) -> Optional[str]:
    """``a.b.c`` for an attribute chain that starts at a name."""
    parts = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if not isinstance(node, ast.Name):
        return None
    parts.append(node.id)
    return ".".join(reversed(parts))


def imports(tree: ast.AST) -> Iterator[Tuple[str, Tuple[str, ...]]]:
    """``(module, names)`` for every import in ``tree``.

    An attribute read on an imported name counts as the import it
    stands for: ``obs.collapsed_from_trace`` after ``from repro import
    obs`` reads what ``from repro.obs import collapsed_from_trace`` would.
    """
    bound: Dict[str, str] = {}  # local name -> the dotted name it binds
    nodes = list(ast.walk(tree))
    for node in nodes:
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.name, ()
                if alias.asname:
                    bound[alias.asname] = alias.name
                else:
                    head = alias.name.partition(".")[0]
                    bound[head] = head
        elif isinstance(node, ast.ImportFrom) and node.module:
            yield node.module, tuple(alias.name for alias in node.names)
            for alias in node.names:
                bound[alias.asname or alias.name] = f"{node.module}.{alias.name}"
        elif (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr == "import_module"
            and node.args
            and isinstance(node.args[0], ast.Constant)
            and isinstance(node.args[0].value, str)
        ):
            yield node.args[0].value, ()
    for node in nodes:
        if isinstance(node, ast.Attribute):
            base = _dotted(node.value)
            head, dot, rest = (base or "").partition(".")
            if head in bound:
                yield bound[head] + dot + rest, (node.attr,)


def reached(root: Path) -> Tuple[Set[str], Dict[str, Path]]:
    """The modules every entry point under ``root`` imports, and all."""
    files = module_files(root / "src")
    lazy: Dict[str, Dict[str, str]] = {}

    def tree_of(path: Path) -> ast.AST:
        return ast.parse(path.read_text(), filename=str(path))

    seen: Set[str] = set()
    todo: List[Path] = [
        path
        for pattern in ("benchmarks/*.py", "benchmarks/e2e/*.py", "scripts/*.py")
        for path in sorted(root.glob(pattern))
    ]

    def visit(module: str) -> None:
        parts = module.split(".")
        for end in range(1, len(parts) + 1):
            name = ".".join(parts[:end])
            if name in files and name not in seen:
                seen.add(name)
                todo.append(files[name])

    def visit_name(package: str, name: str) -> None:
        """What ``from package import name`` runs beyond the package."""
        if f"{package}.{name}" in files:
            visit(f"{package}.{name}")
        elif package in files:
            if package not in lazy:
                lazy[package] = lazy_map(tree_of(files[package]))
            target = lazy[package].get(name)
            if target is not None and target != package:
                visit(target)
                visit_name(target, name)

    visit("repro.cli")
    while todo:
        for module, names in imports(tree_of(todo.pop())):
            visit(module)
            for name in names:
                visit_name(module, name)
    return seen, files


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--root",
        type=Path,
        default=Path(__file__).resolve().parent.parent,
        help="repository root (default: this script's checkout)",
    )
    args = parser.parse_args(argv)
    seen, files = reached(args.root)
    problems = [
        f"{module}: no entry point imports it ({files[module]})"
        for module in sorted(set(files) - seen - set(ALLOWED))
    ]
    for module, reason in sorted(ALLOWED.items()):
        if module not in files:
            problems.append(f"{module}: allow-listed ({reason}) but gone")
        elif module in seen:
            problems.append(f"{module}: allow-listed ({reason}) but reached")
    for problem in problems:
        print(problem, file=sys.stderr)
    if problems:
        return 1
    print(
        f"{len(seen)} of {len(files)} modules reached; "
        f"{len(ALLOWED)} allow-listed"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
