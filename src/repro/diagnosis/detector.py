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

from ..simnet.bounds import check
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

    @property
    def duration_bins(self) -> int:
        """Dip length in bins."""
        return self.end_bin - self.start_bin


@dataclass
class DetectorConfig:
    """Detection thresholds.

    ``min_drop_fraction`` suppresses statistically-significant but
    operationally-trivial dips (a few percent below baseline): an
    unreachability event by definition removes a substantial share of a
    slice's requests.
    """

    z_threshold: float = -3.0
    min_consecutive_bins: int = 3
    min_drop_fraction: float = 0.25

    def __post_init__(self) -> None:
        check("z_threshold", self.z_threshold, lt=0)
        check("min_consecutive_bins", self.min_consecutive_bins, ge=1, integer=True)
        check("min_drop_fraction", self.min_drop_fraction, ge=0, lt=1)


class UnreachabilityDetector:
    """Per-slice anomaly detection over a train/score split."""

    def __init__(
        self,
        period_bins: int,
        config: DetectorConfig = None,
    ) -> None:
        self.period_bins = period_bins
        self.config = config if config is not None else DetectorConfig()

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
        config = self.config
        dips = []
        run_start = None
        for i, z in enumerate(list(scores) + [0.0]):  # sentinel flushes tail
            if z <= config.z_threshold:
                if run_start is None:
                    run_start = i
                continue
            if run_start is not None:
                run_len = i - run_start
                if run_len >= config.min_consecutive_bins:
                    abs_start = offset + run_start
                    abs_end = offset + i
                    window = range(abs_start, abs_end)
                    drops = []
                    for b in window:
                        expected = baseline.expected(b).expected
                        if expected > 0:
                            drops.append(1.0 - values[b] / expected)
                    mean_drop = float(np.mean(drops)) if drops else 0.0
                    if mean_drop >= config.min_drop_fraction:
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
