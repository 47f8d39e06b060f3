"""Shared low-level helpers: seeded RNG management and validation."""

from repro._lazy import lazy_exports

__all__ = [
    "RandomState",
    "derive_rng",
    "ensure_rng",
    "check_fraction",
    "check_positive",
    "check_probability",
    "check_vector",
    "check_vectors",
]

__getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "repro.utils.rng": ("RandomState", "derive_rng", "ensure_rng"),
        "repro.utils.validation": (
            "check_fraction",
            "check_positive",
            "check_probability",
            "check_vector",
            "check_vectors",
        ),
    },
)
