"""Unreachability-event detection on sliced request volumes.

For each telemetry slice, fits a :class:`SeasonalBaseline` on a training
prefix and flags sustained dips (robust z-score below a threshold for a
minimum number of consecutive bins) in the scoring suffix — the Figure-5
pipeline.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Mapping

import numpy as np

from .events import SliceKey
from .timeseries import SeasonalBaseline


@dataclass(frozen=True)
class DetectedDip:
    """A sustained anomalous dip on one slice."""

    key: SliceKey
    start_bin: int
    end_bin: int  # exclusive
    min_zscore: float
    mean_drop_fraction: float


#: Detection thresholds: a dip is a run of at least MIN_CONSECUTIVE_BINS
#: bins scoring at or below Z_THRESHOLD.  MIN_DROP_FRACTION suppresses
#: statistically-significant but operationally-trivial dips (a few percent
#: below baseline): an unreachability event by definition removes a
#: substantial share of a slice's requests.
Z_THRESHOLD = -3.0
MIN_CONSECUTIVE_BINS = 3
MIN_DROP_FRACTION = 0.25


class UnreachabilityDetector:
    """Per-slice anomaly detection over a train/score split."""

    def __init__(self, period_bins: int) -> None:
        self.period_bins = period_bins

    def detect(
        self,
        series: Mapping[SliceKey, np.ndarray],
        train_bins: int,
    ) -> List[DetectedDip]:
        """Find sustained dips in ``series[train_bins:]``.

        ``train_bins`` must cover at least two seasonal periods; scoring
        bins are indexed absolutely (offset by ``train_bins``).
        """
        dips: List[DetectedDip] = []
        for key, values in series.items():
            values = np.asarray(values, dtype=float)
            if values.size <= train_bins:
                raise ValueError(
                    f"series for {key} has {values.size} bins; needs more than "
                    f"train_bins={train_bins}"
                )
            baseline = SeasonalBaseline(self.period_bins).fit(values[:train_bins])
            scores = baseline.zscores(train_bins, values[train_bins:])
            dips.extend(self._runs_to_dips(key, baseline, values, scores, train_bins))
        return sorted(dips, key=lambda d: (d.start_bin, d.key))

    def _runs_to_dips(
        self,
        key: SliceKey,
        baseline: SeasonalBaseline,
        values: np.ndarray,
        scores: np.ndarray,
        offset: int,
    ) -> List[DetectedDip]:
        dips = []
        run_start = None
        for i, z in enumerate(list(scores) + [0.0]):  # sentinel flushes tail
            if z <= Z_THRESHOLD:
                if run_start is None:
                    run_start = i
                continue
            if run_start is not None:
                run_len = i - run_start
                if run_len >= MIN_CONSECUTIVE_BINS:
                    abs_start = offset + run_start
                    abs_end = offset + i
                    window = range(abs_start, abs_end)
                    drops = []
                    for b in window:
                        expected = baseline.expected(b).expected
                        if expected > 0:
                            drops.append(1.0 - values[b] / expected)
                    mean_drop = float(np.mean(drops)) if drops else 0.0
                    if mean_drop >= MIN_DROP_FRACTION:
                        dips.append(
                            DetectedDip(
                                key=key,
                                start_bin=abs_start,
                                end_bin=abs_end,
                                min_zscore=float(np.min(scores[run_start:i])),
                                mean_drop_fraction=mean_drop,
                            )
                        )
                run_start = None
        return dips
