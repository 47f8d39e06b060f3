"""Aggregation rules of the e2e benchmark (pure functions, unit-tested).

The machine this runs on is a guest on a shared host: for seconds to
minutes at a time the hypervisor takes the CPU away (steal time) and
the CPU rate shifts by a quarter.  So no metric is one long sample:
every timing is computed per epoch, and a run reports the median over
the epochs the hypervisor disturbed least.  A percentile is reported
only where at least ten samples lie beyond it.
"""

from __future__ import annotations

import statistics
from typing import Dict, List, Mapping, Optional, Sequence

#: Percentiles a latency series may be summarised by, ascending.
PERCENTILES = (50.0, 75.0, 90.0, 95.0, 99.0)
#: Samples that must lie beyond a percentile for it to be reported.
MIN_BEYOND = 10
#: An epoch is calm when the hypervisor stole at most this share of its
#: wall time from the CPU the benchmark runs on.
CALM_STEAL_SHARE = 0.01
#: Fewest epochs a run's value may rest on.
MIN_CALM = 3


def percentile(values: Sequence[float], q: float) -> float:
    """Linear-interpolation percentile (numpy's default rule)."""
    if not values:
        raise ValueError("percentile of an empty series")
    ordered = sorted(values)
    rank = (len(ordered) - 1) * q / 100.0
    low = int(rank)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (rank - low)


def tail_percentile(n_samples: int) -> Optional[float]:
    """Highest of :data:`PERCENTILES` with >= 10 samples beyond it."""
    supported = [
        q for q in PERCENTILES if n_samples * (100.0 - q) / 100.0 >= MIN_BEYOND
    ]
    return max(supported) if supported else None


def calm_epochs(steal_shares: Sequence[float]) -> List[int]:
    """Indices of the epochs a run's metrics are taken from, ascending.

    The calm ones (steal share <= :data:`CALM_STEAL_SHARE`); when fewer
    than half of the epochs are calm (or fewer than :data:`MIN_CALM`),
    the half with the least steal instead, so a run on a loaded host
    still reports, from its least disturbed epochs.
    """
    n = len(steal_shares)
    calm = [i for i in range(n) if steal_shares[i] <= CALM_STEAL_SHARE]
    floor = min(n, max(MIN_CALM, (n + 1) // 2))
    if len(calm) >= floor:
        return calm
    by_steal = sorted(range(n), key=lambda i: (steal_shares[i], i))
    return sorted(by_steal[:floor])


def median_over_epochs(
    epochs: Sequence[Mapping[str, float]],
) -> Dict[str, float]:
    """Median of every metric over the epochs that report it."""
    names: List[str] = []
    for epoch in epochs:
        names.extend(n for n in epoch if n not in names)
    return {
        name: statistics.median(e[name] for e in epochs if name in e)
        for name in names
    }
