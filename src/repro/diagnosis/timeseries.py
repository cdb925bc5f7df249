"""Seasonal time-series baseline model for request volumes.

Section 3.4: "We build a time series model for the volume of requests
received by a cloud service, sliced along various dimensions (client
AS'es, data center locations, etc.), and look for anomalous departures
from the model."

The model is a per-bin diurnal profile: for each time-of-day bin it
learns a robust location/scale (median and MAD) of historical volumes,
then scores new observations as robust z-scores.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

import numpy as np

from ..simnet.bounds import check

#: Scale factor turning a median absolute deviation into a std estimate.
MAD_TO_SIGMA = 1.4826


@dataclass(frozen=True)
class BaselinePoint:
    """Expected volume and spread for one time bin."""

    expected: float
    sigma: float


#: Full seasonal periods of history a baseline needs before it scores.
MIN_HISTORY_PERIODS = 2


class SeasonalBaseline:
    """Robust diurnal baseline for one request-volume series.

    Parameters
    ----------
    period_bins:
        Bins per seasonal period (e.g. 288 five-minute bins per day).
        Scoring needs ``MIN_HISTORY_PERIODS`` full periods of history.
    """

    def __init__(self, period_bins: int) -> None:
        self.period_bins = check("period_bins", period_bins, ge=1, integer=True)
        self._fitted: Optional[List[BaselinePoint]] = None

    def fit(self, history: Sequence[float]) -> "SeasonalBaseline":
        """Learn the per-bin profile from a history of volumes.

        ``history[i]`` is the volume of bin ``i``; bin ``i`` belongs to
        phase ``i % period_bins``.
        """
        values = np.asarray(history, dtype=float)
        if values.ndim != 1:
            raise ValueError("history must be one-dimensional")
        if values.size < self.period_bins * MIN_HISTORY_PERIODS:
            raise ValueError(
                f"need >= {self.period_bins * MIN_HISTORY_PERIODS} bins of "
                f"history, got {values.size}"
            )
        # First pass: per-phase medians (the seasonal profile) and the
        # residuals around them.  With few history periods a per-phase MAD
        # rests on a handful of samples and can badly underestimate sigma,
        # so each phase's sigma is floored at the global residual scale.
        phase_medians = []
        residuals = np.empty_like(values)
        for phase in range(self.period_bins):
            phase_values = values[phase :: self.period_bins]
            median = float(np.median(phase_values))
            phase_medians.append(median)
            residuals[phase :: self.period_bins] = phase_values - median
        global_mad = float(np.median(np.abs(residuals)))

        points = []
        for phase in range(self.period_bins):
            phase_values = values[phase :: self.period_bins]
            median = phase_medians[phase]
            mad = float(np.median(np.abs(phase_values - median)))
            sigma = max(
                MAD_TO_SIGMA * mad,
                MAD_TO_SIGMA * global_mad,
                0.01 * max(median, 1.0),
            )
            points.append(BaselinePoint(expected=median, sigma=sigma))
        self._fitted = points
        return self

    def expected(self, bin_index: int) -> BaselinePoint:
        """The learned profile at ``bin_index``'s phase."""
        if self._fitted is None:
            raise RuntimeError("baseline must be fitted before use")
        return self._fitted[bin_index % self.period_bins]

    def zscore(self, bin_index: int, value: float) -> float:
        """Robust z-score of ``value`` at ``bin_index`` (negative = dip)."""
        point = self.expected(bin_index)
        return (value - point.expected) / point.sigma

    def zscores(self, start_bin: int, values: Sequence[float]) -> np.ndarray:
        """Vectorized z-scores for consecutive bins from ``start_bin``."""
        return np.array(
            [self.zscore(start_bin + i, v) for i, v in enumerate(values)]
        )
