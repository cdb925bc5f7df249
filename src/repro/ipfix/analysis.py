"""Sharing-opportunity analysis (the Section 2.1 numbers).

From the collector's per-slot flow sets, computes for every observed flow
how many *other* flows share its (/24, minute) slot — i.e. very likely
its WAN path — and summarizes the distribution.  The paper reports:
"50% of the flows share the WAN path with at least 5 other flows while
12% share it with at least 100 other flows".
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

import numpy as np

from .collector import IpfixCollector


@dataclass(frozen=True)
class SharingStats:
    """Distribution of per-flow co-sharing counts."""

    observations: int
    fraction_sharing_at_least: Dict[int, float]
    median_companions: float
    mean_companions: float

    def fraction_at_least(self, companions: int) -> float:
        """Fraction of flows sharing their slot with >= ``companions`` others."""
        if companions in self.fraction_sharing_at_least:
            return self.fraction_sharing_at_least[companions]
        raise KeyError(
            f"threshold {companions} not computed; available: "
            f"{sorted(self.fraction_sharing_at_least)}"
        )


#: The paper's two headline thresholds plus context points for the CDF.
DEFAULT_THRESHOLDS = (1, 5, 10, 50, 100, 500)


def companion_counts(collector: IpfixCollector) -> np.ndarray:
    """Per observed flow: the number of other flows in its slot."""
    pairs = collector.flows_with_slot_sizes()
    if not pairs:
        return np.zeros(0, dtype=np.int64)
    return np.array([size - 1 for _flow, size in pairs], dtype=np.int64)


def sharing_stats(collector: IpfixCollector) -> SharingStats:
    """Summarize slot co-sharing at each of ``DEFAULT_THRESHOLDS``."""
    thresholds = DEFAULT_THRESHOLDS
    counts = companion_counts(collector)
    if counts.size == 0:
        return SharingStats(
            observations=0,
            fraction_sharing_at_least={t: 0.0 for t in thresholds},
            median_companions=0.0,
            mean_companions=0.0,
        )
    fractions = {
        threshold: float(np.mean(counts >= threshold)) for threshold in thresholds
    }
    return SharingStats(
        observations=int(counts.size),
        fraction_sharing_at_least=fractions,
        median_companions=float(np.median(counts)),
        mean_companions=float(np.mean(counts)),
    )


def sharing_ccdf(collector: IpfixCollector) -> List[Tuple[int, float]]:
    """The full CCDF of companion counts: (k, P[companions >= k]).

    Returned at the distinct observed values, suitable for plotting the
    paper's in-text distribution as a curve.
    """
    counts = companion_counts(collector)
    if counts.size == 0:
        return []
    values = np.unique(counts)
    return [(int(v), float(np.mean(counts >= v))) for v in values]
