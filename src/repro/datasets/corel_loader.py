"""Loader for a real Corel-style image directory.

Users who *do* have the Corel collection (or any directory of images
organised one-folder-per-category) can build an
:class:`~repro.datasets.database.ImageDatabase` from it and run the full
system on real photographs.  To stay dependency-free the loader reads
binary and ASCII **PPM/PGM** files (the classic Netpbm formats every
image tool can export to):

    corel/
      sunsets/       img001.ppm img002.ppm ...
      tigers/        ...

Images are centre-cropped to square and box-downsampled to the feature
pipeline's working size.
"""

from __future__ import annotations

from pathlib import Path
from typing import List, Tuple

import numpy as np

from repro.config import FeatureConfig
from repro.datasets.database import ImageDatabase
from repro.errors import DatasetError
from repro.features.extractor import FeatureExtractor
from repro.features.normalize import FeatureNormalizer

_SUPPORTED_SUFFIXES = (".ppm", ".pgm")


def read_netpbm(path: str | Path) -> np.ndarray:
    """Read a PPM (P3/P6) or PGM (P2/P5) file into an RGB float array.

    Greyscale inputs are replicated across the three channels.  Values
    are scaled to [0, 1] by the file's maxval.
    """
    source = Path(path)
    data = source.read_bytes()
    if len(data) < 2:
        raise DatasetError(f"{source}: not a Netpbm file")
    magic = data[:2].decode("ascii", errors="replace")
    if magic not in ("P2", "P3", "P5", "P6"):
        raise DatasetError(
            f"{source}: unsupported Netpbm magic {magic!r}"
        )
    tokens, pixel_start = _netpbm_header_tokens(data)
    if len(tokens) < 4:
        raise DatasetError(f"{source}: truncated Netpbm header")
    width, height, maxval = (
        int(tokens[1]), int(tokens[2]), int(tokens[3])
    )
    if width < 1 or height < 1 or maxval < 1:
        raise DatasetError(f"{source}: invalid Netpbm dimensions")
    channels = 3 if magic in ("P3", "P6") else 1
    count = width * height * channels
    if magic in ("P5", "P6"):
        dtype = np.uint8 if maxval < 256 else np.dtype(">u2")
        try:
            raw = np.frombuffer(
                data, dtype=dtype, count=count, offset=pixel_start
            )
        except ValueError as exc:
            raise DatasetError(
                f"{source}: truncated pixel data"
            ) from exc
        values = raw.astype(np.float64)
    else:
        ascii_values = data[pixel_start:].split()
        if len(ascii_values) < count:
            raise DatasetError(f"{source}: truncated pixel data")
        values = np.array(
            [float(v) for v in ascii_values[:count]], dtype=np.float64
        )
    image = values.reshape(height, width, channels) / maxval
    if channels == 1:
        image = np.repeat(image, 3, axis=2)
    return np.clip(image, 0.0, 1.0)


def _netpbm_header_tokens(data: bytes) -> Tuple[List[bytes], int]:
    """Parse the 4 header tokens, honouring ``#`` comments.

    Returns the tokens and the byte offset where pixel data begins (for
    binary formats this is exactly one whitespace byte after maxval).
    """
    tokens: List[bytes] = []
    i = 0
    n = len(data)
    while i < n and len(tokens) < 4:
        c = data[i : i + 1]
        if c == b"#":
            while i < n and data[i : i + 1] not in (b"\n", b"\r"):
                i += 1
        elif c.isspace():
            i += 1
        else:
            start = i
            while i < n and not data[i : i + 1].isspace():
                i += 1
            tokens.append(data[start:i])
    # Binary pixel data starts after a single whitespace byte.
    return tokens, min(i + 1, n)


def write_ppm(path: str | Path, image: np.ndarray) -> None:
    """Write an RGB float image in [0, 1] as a binary PPM (P6).

    The inverse of :func:`read_netpbm` for round-trip tests and for
    exporting rendered scenes.
    """
    arr = np.asarray(image, dtype=np.float64)
    if arr.ndim != 3 or arr.shape[2] != 3:
        raise DatasetError(
            f"write_ppm needs an (H, W, 3) image, got {arr.shape}"
        )
    height, width = arr.shape[:2]
    body = (np.clip(arr, 0.0, 1.0) * 255).round().astype(np.uint8)
    with open(path, "wb") as handle:
        handle.write(f"P6\n{width} {height}\n255\n".encode("ascii"))
        handle.write(body.tobytes())


def square_resize(image: np.ndarray, size: int) -> np.ndarray:
    """Centre-crop to square, then box-downsample/upsample to ``size``."""
    arr = np.asarray(image, dtype=np.float64)
    h, w = arr.shape[:2]
    side = min(h, w)
    top = (h - side) // 2
    left = (w - side) // 2
    cropped = arr[top : top + side, left : left + side]
    if side == size:
        return cropped
    # Nearest-bin box sampling (adequate for the 32x32 working size).
    idx = (np.arange(size) * side // size).clip(0, side - 1)
    return cropped[np.ix_(idx, idx)]


def load_corel_directory(
    root: str | Path,
    *,
    image_size: int = 32,
    max_per_category: int | None = None,
    feature_config: FeatureConfig | None = None,
) -> ImageDatabase:
    """Build an :class:`ImageDatabase` from a category-per-folder tree.

    Parameters
    ----------
    root:
        Directory whose sub-directories are categories holding PPM/PGM
        files.
    image_size:
        Working resolution for feature extraction (must satisfy the
        wavelet-level constraint of the feature config).
    max_per_category:
        Optional cap on images loaded per category.
    """
    base = Path(root)
    if not base.is_dir():
        raise DatasetError(f"{base} is not a directory")
    fcfg = feature_config or FeatureConfig(image_size=image_size)
    extractor = FeatureExtractor(fcfg)
    category_names: List[str] = []
    rows: List[np.ndarray] = []
    labels: List[int] = []
    for label, cat_dir in enumerate(
        sorted(p for p in base.iterdir() if p.is_dir())
    ):
        files = sorted(
            f
            for f in cat_dir.iterdir()
            if f.suffix.lower() in _SUPPORTED_SUFFIXES
        )
        if max_per_category is not None:
            files = files[:max_per_category]
        if not files:
            continue
        category_names.append(cat_dir.name)
        effective_label = len(category_names) - 1
        for file in files:
            image = square_resize(read_netpbm(file), image_size)
            rows.append(extractor.extract(image))
            labels.append(effective_label)
        del label
    if not rows:
        raise DatasetError(
            f"no {'/'.join(_SUPPORTED_SUFFIXES)} images found under "
            f"{base}"
        )
    raw = np.vstack(rows)
    normalizer = FeatureNormalizer().fit(raw)
    return ImageDatabase(
        features=normalizer.transform(raw),
        labels=np.asarray(labels, dtype=np.int64),
        category_names=category_names,
        normalizer=normalizer,
    )
