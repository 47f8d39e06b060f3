"""Atomic ``.npz`` writes, shared by the database and index files."""

from __future__ import annotations

import contextlib
import os
from pathlib import Path
from typing import Mapping

import numpy as np


def save_npz_atomic(
    path: str | Path, arrays: Mapping[str, np.ndarray], *, compress: bool
) -> Path:
    """Write ``arrays`` to ``path`` as one ``.npz``; returns the path.

    The archive goes to ``.<name>.<pid>.tmp`` in the target directory
    and is moved into place with ``os.replace``, so a writer that dies
    half-way leaves whatever was at ``path`` before — never a truncated
    file — and no temporary file.  The temporary file is created with
    ``open()``, not ``mkstemp``, so the result keeps the mode the umask
    gives any other output file.  A name without the ``.npz`` suffix
    gains it, as with ``np.savez``.
    """
    target = Path(path)
    if target.suffix != ".npz":
        target = target.with_name(target.name + ".npz")
    tmp = target.with_name(f".{target.name}.{os.getpid()}.tmp")
    write = np.savez_compressed if compress else np.savez
    try:
        with open(tmp, "xb") as handle:
            write(handle, **arrays)
        os.replace(tmp, target)
    except BaseException:
        with contextlib.suppress(OSError):
            os.unlink(tmp)
        raise
    return target
