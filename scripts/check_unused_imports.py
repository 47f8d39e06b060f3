#!/usr/bin/env python
"""Fail when a module under src/ imports a name it never uses.

The same rule as ruff's F401, read from the source with the standard
library alone, so it runs wherever the tests run.  A bound name counts
as used when the module reads it anywhere (any scope), names it in
``__all__``, or names it inside a string annotation
(``"QueryDecompositionEngine"`` behind ``TYPE_CHECKING``).  An import
whose line carries ``# noqa: F401`` (or a bare ``# noqa``) is kept on
purpose, for its side effect.  ``from __future__`` and star imports
bind nothing to check.

    python scripts/check_unused_imports.py [PATH...]

PATH is a file or a directory (default: ``src`` of this checkout).
Exit status 0 when every import is used, 1 when some is not (each is
printed as ``file:line: name``).
"""

from __future__ import annotations

import argparse
import ast
import re
import sys
from pathlib import Path
from typing import Iterator, List, Sequence, Set, Tuple

_NOQA = re.compile(r"#\s*noqa(?::[^#]*\bF401\b|\s*$|\s*#)")


def bindings(tree: ast.AST) -> Iterator[Tuple[str, int]]:
    """``(bound name, line)`` for every import in ``tree``."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                name = alias.asname or alias.name.partition(".")[0]
                yield name, node.lineno
        elif isinstance(node, ast.ImportFrom):
            if node.module == "__future__":
                continue
            for alias in node.names:
                if alias.name != "*":
                    yield alias.asname or alias.name, node.lineno


def _annotations(tree: ast.AST) -> Iterator[ast.AST]:
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            args = node.args
            for arg in (
                *args.posonlyargs, *args.args, *args.kwonlyargs,
                args.vararg, args.kwarg,
            ):
                if arg is not None and arg.annotation is not None:
                    yield arg.annotation
            if node.returns is not None:
                yield node.returns
        elif isinstance(node, ast.AnnAssign):
            yield node.annotation


def used_names(tree: ast.AST) -> Set[str]:
    """Every name the module reads, exports or annotates with."""
    used = {
        node.id for node in ast.walk(tree) if isinstance(node, ast.Name)
    }
    for node in ast.walk(tree):
        if (
            isinstance(node, ast.Assign)
            and any(
                isinstance(t, ast.Name) and t.id == "__all__"
                for t in node.targets
            )
            and isinstance(node.value, (ast.List, ast.Tuple))
        ):
            used.update(
                elt.value for elt in node.value.elts
                if isinstance(elt, ast.Constant) and isinstance(elt.value, str)
            )
    for annotation in _annotations(tree):
        for node in ast.walk(annotation):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                try:
                    quoted = ast.parse(node.value, mode="eval")
                except SyntaxError:
                    continue
                used.update(
                    n.id for n in ast.walk(quoted) if isinstance(n, ast.Name)
                )
    return used


def unused_imports(path: Path) -> List[Tuple[int, str]]:
    """``(line, name)`` of each import in ``path`` that nothing uses."""
    text = path.read_text()
    tree = ast.parse(text, filename=str(path))
    lines = text.splitlines()
    used = used_names(tree)
    return sorted(
        (line, name)
        for name, line in set(bindings(tree))
        if name not in used and not _NOQA.search(lines[line - 1])
    )


def python_files(paths: Sequence[Path]) -> Iterator[Path]:
    for path in paths:
        if path.is_dir():
            yield from sorted(path.rglob("*.py"))
        else:
            yield path


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "paths",
        nargs="*",
        type=Path,
        default=[Path(__file__).resolve().parent.parent / "src"],
        help="files or directories to check (default: src/)",
    )
    args = parser.parse_args(argv)
    problems = [
        f"{path}:{line}: {name} imported but unused"
        for path in python_files(args.paths)
        for line, name in unused_imports(path)
    ]
    for problem in problems:
        print(problem, file=sys.stderr)
    if problems:
        return 1
    print("no unused imports")
    return 0


if __name__ == "__main__":
    sys.exit(main())
