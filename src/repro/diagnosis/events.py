"""Synthetic request-volume telemetry with injectable outages.

Substitutes the paper's production telemetry (documented in DESIGN.md):
a global cloud service receiving requests from clients sliced by
(client AS, metro, service).  Each slice has a base rate modulated by a
diurnal curve plus Poisson noise; an :class:`OutageSpec` suppresses a
subset of slices over a window — e.g. Figure 5's "unreachability event
localized to an ISP network in a metro that lasted for around 2 hours".
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..simnet.bounds import check

SliceKey = Tuple[str, str, str]
"""(client AS, metro, service)."""


#: The telemetry's dimensions: client ASes, metros and services.
ASES = ("isp-a", "isp-b", "isp-c", "isp-d")
METROS = ("nyc", "lon", "blr", "syd")
SERVICES = ("voip", "storage")

#: Bin width in minutes, and the seasonal period (a day) in bins.
BIN_MINUTES = 5
BINS_PER_DAY = 24 * 60 // BIN_MINUTES

#: Mean requests per bin of a slice, and the diurnal swing around it.
BASE_RATE = 1200.0
DIURNAL_AMPLITUDE = 0.4


def slice_keys() -> List[SliceKey]:
    """Every (AS, metro, service) combination."""
    return [(asn, metro, service) for asn in ASES for metro in METROS for service in SERVICES]


@dataclass(frozen=True)
class OutageSpec:
    """An injected unreachability event.

    ``None`` in a dimension means "all values" — e.g. Figure 5's event is
    ``OutageSpec(asn="isp-a", metro="nyc", ...)``: one ISP in one metro.
    An outage always spans every service: it is a network event.
    """

    start_bin: int
    duration_bins: int
    severity: float  # fraction of requests lost, 1.0 = total blackout
    asn: Optional[str] = None
    metro: Optional[str] = None

    def __post_init__(self) -> None:
        check("start_bin", self.start_bin, ge=0, integer=True)
        check("duration_bins", self.duration_bins, ge=1, integer=True)
        check("severity", self.severity, gt=0, le=1)

    def affects(self, key: SliceKey, bin_index: int) -> bool:
        """Whether this outage suppresses ``key`` at ``bin_index``."""
        if not self.start_bin <= bin_index < self.start_bin + self.duration_bins:
            return False
        asn, metro, _service = key
        if self.asn is not None and asn != self.asn:
            return False
        return self.metro is None or metro == self.metro

    @property
    def end_bin(self) -> int:
        """First bin after the outage."""
        return self.start_bin + self.duration_bins


class TelemetryGenerator:
    """Generates per-slice request-volume series."""

    def __init__(
        self,
        rng: np.random.Generator,
        outages: Sequence[OutageSpec] = (),
    ) -> None:
        self.rng = rng
        self.outages = list(outages)
        # Stable per-slice rate multipliers so slices differ in size.
        self._multipliers: Dict[SliceKey, float] = {}
        for key in slice_keys():
            self._multipliers[key] = float(self.rng.uniform(0.4, 1.6))

    def _expected_rate(self, key: SliceKey, bin_index: int) -> float:
        phase = 2 * math.pi * (bin_index % BINS_PER_DAY) / BINS_PER_DAY
        diurnal = 1.0 + DIURNAL_AMPLITUDE * math.sin(phase)
        return BASE_RATE * self._multipliers[key] * diurnal

    def generate(self, n_bins: int) -> Dict[SliceKey, np.ndarray]:
        """Per-slice volume series of length ``n_bins`` (outages applied)."""
        if n_bins < 1:
            raise ValueError(f"n_bins must be >= 1: {n_bins}")
        series: Dict[SliceKey, np.ndarray] = {}
        for key in slice_keys():
            expected = np.array(
                [self._expected_rate(key, b) for b in range(n_bins)]
            )
            for outage in self.outages:
                for b in range(n_bins):
                    if outage.affects(key, b):
                        expected[b] *= 1.0 - outage.severity
            series[key] = self.rng.poisson(expected).astype(float)
        return series
