"""Shared low-level helpers: seeded RNG management, validation, timing."""

from repro._lazy import lazy_exports

__all__ = [
    "RandomState",
    "derive_rng",
    "ensure_rng",
    "Stopwatch",
    "TimingLog",
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
        "repro.utils.timing": ("Stopwatch", "TimingLog"),
        "repro.utils.validation": (
            "check_fraction",
            "check_positive",
            "check_probability",
            "check_vector",
            "check_vectors",
        ),
    },
)
