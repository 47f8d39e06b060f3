"""Package re-exports resolved on first attribute access (PEP 562)."""

from __future__ import annotations

import importlib
import sys
from typing import Any, Callable, Dict, List, Sequence, Tuple


def lazy_exports(
    package: str, exports: Dict[str, Sequence[str]]
) -> Tuple[Callable[[str], Any], Callable[[], List[str]]]:
    """A package's ``__getattr__`` and ``__dir__`` for its re-exports.

    ``exports`` maps each module to the names the package re-exports
    from it.  The module is imported when one of its names is first
    read from the package; the value is then stored on the package, so
    later reads are plain attribute lookups.  Importing a package thus
    runs only its own ``__init__``, and a program compiles no module it
    never reads a name from.

    A re-exported name that is also the name of one of the package's
    submodules (``repro.clustering.kmeans``) cannot be lazy: importing
    that submodule sets the package attribute to the module before any
    read could resolve the name, so such a name is imported eagerly.
    """
    source = {
        name: module for module, names in exports.items() for name in names
    }

    def __getattr__(name: str) -> Any:
        module = source.get(name)
        if module is None:
            raise AttributeError(
                f"module {package!r} has no attribute {name!r}"
            )
        value = getattr(importlib.import_module(module), name)
        setattr(sys.modules[package], name, value)
        return value

    def __dir__() -> List[str]:
        return sorted(set(vars(sys.modules[package])) | set(source))

    return __getattr__, __dir__
