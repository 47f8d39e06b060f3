"""The :class:`ImageDatabase` container.

Bundles the normalised feature matrix, the per-image category labels,
the category name table, and the fitted normalizer.  Neither rendered
pixel data nor the pre-normalisation features are retained — the
paper's pipeline only ever touches feature vectors after extraction.

A database file is an uncompressed ``.npz`` of plain arrays (category
names as a unicode array), read with ``allow_pickle=False``: loading
one never unpickles anything.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.errors import DatasetError, UnknownConceptError
from repro.features.normalize import FeatureNormalizer
from repro.utils.npzfile import save_npz_atomic

#: The arrays of a database file (anything else in it is ignored).
_FILE_ARRAYS = (
    "features", "labels", "category_names", "norm_mean", "norm_std"
)


@dataclass
class ImageDatabase:
    """A searchable image database in feature space.

    Attributes
    ----------
    features:
        (n, d) z-scored feature matrix; row index is the image id.
    labels:
        (n,) integer category label per image.
    category_names:
        Label → name table (index position is the label value).
    normalizer:
        The fitted :class:`FeatureNormalizer` (needed to project new
        query images into the database's feature scale).
    """

    features: np.ndarray
    labels: np.ndarray
    category_names: List[str]
    normalizer: FeatureNormalizer
    #: Label -> sorted image ids, built by the first category lookup
    #: (serving never makes one).
    _ids_by_label: Optional[Dict[int, np.ndarray]] = field(
        default=None, init=False, repr=False
    )

    def __post_init__(self) -> None:
        n = self.features.shape[0]
        if self.labels.shape[0] != n:
            raise DatasetError(
                "features and labels must agree on the number of images"
            )
        if self.labels.min(initial=0) < 0 or (
            n > 0 and self.labels.max() >= len(self.category_names)
        ):
            raise DatasetError("labels reference unknown categories")

    # ------------------------------------------------------------------
    @property
    def size(self) -> int:
        """Number of images."""
        return int(self.features.shape[0])

    @property
    def dims(self) -> int:
        """Feature dimensionality."""
        return int(self.features.shape[1])

    def label_of(self, name: str) -> int:
        """Label value of a category name."""
        try:
            return self.category_names.index(name)
        except ValueError as exc:
            raise UnknownConceptError(
                f"category {name!r} not in this database"
            ) from exc

    def category_of(self, image_id: int) -> str:
        """Category name of an image id."""
        if not 0 <= image_id < self.size:
            raise DatasetError(f"image id {image_id} out of range")
        return self.category_names[int(self.labels[image_id])]

    def ids_of_category(self, name: str) -> np.ndarray:
        """All image ids belonging to a category name."""
        label = self.label_of(name)
        index = self._ids_by_label
        if index is None:
            # Built whole, then published: a racing lookup builds its own.
            index = self._ids_by_label = {
                int(label): np.flatnonzero(self.labels == label)
                for label in np.unique(self.labels)
            }
        return index.get(label, np.empty(0, dtype=np.int64))

    def ids_of_categories(self, names: Sequence[str]) -> np.ndarray:
        """Image ids of a union of categories, sorted."""
        parts = [self.ids_of_category(name) for name in names]
        if not parts:
            return np.empty(0, dtype=np.int64)
        return np.sort(np.concatenate(parts))

    def ground_truth_size(self, names: Sequence[str]) -> int:
        """Number of images whose category is in ``names``."""
        return int(self.ids_of_categories(names).shape[0])

    # ------------------------------------------------------------------
    # Persistence
    # ------------------------------------------------------------------
    def save(self, path: str | Path) -> None:
        """Write the database to an ``.npz`` file, atomically.

        Plain arrays only, uncompressed (compression saved 4 % of the
        bytes and cost every load an inflate); a bare name gains
        ``.npz``.  A writer that dies half-way leaves the previous file
        in place (:func:`~repro.utils.npzfile.save_npz_atomic`).
        """
        save_npz_atomic(
            path,
            {
                "features": self.features,
                "labels": self.labels,
                "category_names": np.array(self.category_names, dtype=str),
                "norm_mean": np.asarray(self.normalizer.mean_, dtype=float),
                "norm_std": np.asarray(self.normalizer.std_, dtype=float),
            },
            compress=False,
        )

    @classmethod
    def load(cls, path: str | Path) -> "ImageDatabase":
        """Load a database saved with :meth:`save`.

        Nothing is unpickled: a file holding pickled data — the object
        array of category names files had before they were pickle-free,
        or anything crafted — is refused with a :class:`DatasetError`
        before any of it runs.
        """
        source = Path(path)
        if not source.exists():
            raise DatasetError(f"no database file at {source}")
        try:
            with np.load(source, allow_pickle=False) as data:
                missing = sorted(set(_FILE_ARRAYS) - set(data.files))
                if missing:
                    raise DatasetError(
                        f"{source} is not a database file (no {missing})"
                    )
                arrays = {name: data[name] for name in _FILE_ARRAYS}
        except ValueError as exc:
            raise DatasetError(
                f"{source} holds pickled data, which a database file is "
                f"never read with ({exc}).  If you trust the file, re-save "
                "it pickle-free: load it with numpy.load allowing pickles, "
                "turn 'category_names' into a str array (.astype(str)) and "
                "write every array back with numpy.savez — or rebuild it "
                "with 'build-db'"
            ) from exc
        normalizer = FeatureNormalizer()
        normalizer.mean_ = np.asarray(arrays["norm_mean"], dtype=np.float64)
        normalizer.std_ = np.asarray(arrays["norm_std"], dtype=np.float64)
        return cls(
            features=np.asarray(arrays["features"], dtype=np.float64),
            labels=np.asarray(arrays["labels"], dtype=np.int64),
            category_names=arrays["category_names"].tolist(),
            normalizer=normalizer,
        )
