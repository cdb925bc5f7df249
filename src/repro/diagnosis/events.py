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


@dataclass(frozen=True)
class TelemetryConfig:
    """Dimensions and rates of the synthetic telemetry."""

    ases: Sequence[str] = ("isp-a", "isp-b", "isp-c", "isp-d")
    metros: Sequence[str] = ("nyc", "lon", "blr", "syd")
    services: Sequence[str] = ("voip", "storage")
    bin_minutes: int = 5
    base_rate: float = 1200.0
    diurnal_amplitude: float = 0.4

    def __post_init__(self) -> None:
        check("bin_minutes", self.bin_minutes, ge=1, integer=True)
        check("base_rate", self.base_rate, gt=0)
        check("diurnal_amplitude", self.diurnal_amplitude, ge=0, lt=1)

    @property
    def bins_per_day(self) -> int:
        """Seasonal period in bins."""
        return 24 * 60 // self.bin_minutes

    def slice_keys(self) -> List[SliceKey]:
        """Every (AS, metro, service) combination."""
        return [
            (asn, metro, service)
            for asn in self.ases
            for metro in self.metros
            for service in self.services
        ]


@dataclass(frozen=True)
class OutageSpec:
    """An injected unreachability event.

    ``None`` in a dimension means "all values" — e.g. Figure 5's event is
    ``OutageSpec(asn="isp-a", metro="nyc", service=None, ...)``: one ISP
    in one metro, across every service.
    """

    start_bin: int
    duration_bins: int
    severity: float  # fraction of requests lost, 1.0 = total blackout
    asn: Optional[str] = None
    metro: Optional[str] = None
    service: Optional[str] = None

    def __post_init__(self) -> None:
        check("start_bin", self.start_bin, ge=0, integer=True)
        check("duration_bins", self.duration_bins, ge=1, integer=True)
        check("severity", self.severity, gt=0, le=1)

    def affects(self, key: SliceKey, bin_index: int) -> bool:
        """Whether this outage suppresses ``key`` at ``bin_index``."""
        if not self.start_bin <= bin_index < self.start_bin + self.duration_bins:
            return False
        asn, metro, service = key
        if self.asn is not None and asn != self.asn:
            return False
        if self.metro is not None and metro != self.metro:
            return False
        if self.service is not None and service != self.service:
            return False
        return True

    @property
    def end_bin(self) -> int:
        """First bin after the outage."""
        return self.start_bin + self.duration_bins


class TelemetryGenerator:
    """Generates per-slice request-volume series."""

    def __init__(
        self,
        config: TelemetryConfig,
        rng: np.random.Generator,
        outages: Sequence[OutageSpec] = (),
    ) -> None:
        self.config = config
        self.rng = rng
        self.outages = list(outages)
        # Stable per-slice rate multipliers so slices differ in size.
        self._multipliers: Dict[SliceKey, float] = {}
        for key in config.slice_keys():
            self._multipliers[key] = float(self.rng.uniform(0.4, 1.6))

    def _expected_rate(self, key: SliceKey, bin_index: int) -> float:
        cfg = self.config
        phase = 2 * math.pi * (bin_index % cfg.bins_per_day) / cfg.bins_per_day
        diurnal = 1.0 + cfg.diurnal_amplitude * math.sin(phase)
        return cfg.base_rate * self._multipliers[key] * diurnal

    def generate(self, n_bins: int) -> Dict[SliceKey, np.ndarray]:
        """Per-slice volume series of length ``n_bins`` (outages applied)."""
        if n_bins < 1:
            raise ValueError(f"n_bins must be >= 1: {n_bins}")
        series: Dict[SliceKey, np.ndarray] = {}
        for key in self.config.slice_keys():
            expected = np.array(
                [self._expected_rate(key, b) for b in range(n_bins)]
            )
            for outage in self.outages:
                for b in range(n_bins):
                    if outage.affects(key, b):
                        expected[b] *= 1.0 - outage.severity
            series[key] = self.rng.poisson(expected).astype(float)
        return series
