"""Performance prediction from pooled observations (Section 3.5).

"Before an application downloads a file or makes a VoIP call or launches
a video stream, it would be able to obtain an indication of the expected
performance."  Predictions are quantile-based over the location's recent
history, with a confidence grade driven by sample count; VoIP quality
uses a simplified ITU E-model mapping RTT and loss to a MOS score.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Optional

import numpy as np

from ..simnet.bounds import check
from .history import LocationKey, ObservationStore


class Confidence(Enum):
    """How much history backs a prediction."""

    NONE = "none"        # no data: caller should not rely on the estimate
    LOW = "low"          # < 10 observations
    MEDIUM = "medium"    # < 100 observations
    HIGH = "high"        # >= 100 observations

    @classmethod
    def from_samples(cls, n: int) -> "Confidence":
        """Grade from a sample count."""
        if n <= 0:
            return cls.NONE
        if n < 10:
            return cls.LOW
        if n < 100:
            return cls.MEDIUM
        return cls.HIGH


@dataclass(frozen=True)
class DownloadPrediction:
    """Expected download behaviour for a (location, size) pair."""

    expected_seconds: float
    p90_seconds: float
    expected_throughput_mbps: float
    confidence: Confidence


@dataclass(frozen=True)
class CallQualityPrediction:
    """Expected VoIP quality at a location."""

    mos: float                 # 1 (bad) .. 4.4 (toll quality ceiling)
    expected_rtt_ms: float
    expected_loss_rate: float
    acceptable: bool           # MOS >= 3.6 is conventionally "acceptable"
    confidence: Confidence


#: MOS floor/ceiling of the simplified E-model.
MOS_MIN, MOS_MAX = 1.0, 4.4

#: MOS threshold above which a call is conventionally acceptable.
ACCEPTABLE_MOS = 3.6


def e_model_mos(rtt_ms: float, loss_rate: float) -> float:
    """Simplified ITU-T G.107 E-model: R-factor -> MOS.

    R starts at 93.2 (G.711 defaults), degraded by one-way delay and by
    loss; MOS follows the standard cubic mapping.
    """
    check("rtt_ms", rtt_ms, ge=0)
    check("loss_rate", loss_rate, ge=0, le=1)
    one_way_ms = rtt_ms / 2.0
    # Delay impairment: negligible below 160 ms one-way, steep afterwards.
    id_factor = 0.024 * one_way_ms + 0.11 * max(0.0, one_way_ms - 177.3)
    # Loss impairment: Ie,eff = Ie + (95 - Ie) * Ppl / (Ppl + Bpl), with
    # Ie = 0 and packet-loss robustness Bpl = 4.3 (G.711, random loss).
    loss_pct = loss_rate * 100.0
    ie_factor = 95.0 * loss_pct / (loss_pct + 4.3)
    r = 93.2 - id_factor - ie_factor
    if r < 0:
        return MOS_MIN
    if r > 100:
        r = 100.0
    mos = 1.0 + 0.035 * r + r * (r - 60.0) * (100.0 - r) * 7e-6
    return max(MOS_MIN, min(MOS_MAX, mos))


class PerformancePredictor:
    """Predicts download times and call quality from shared history."""

    def __init__(self, store: ObservationStore, min_samples: int = 3) -> None:
        self.store = store
        self.min_samples = check("min_samples", min_samples, ge=1, integer=True)

    def predict_download_time(
        self,
        location: LocationKey,
        size_bytes: int,
        *,
        since: Optional[float] = None,
    ) -> DownloadPrediction:
        """Expected and 90th-percentile time to move ``size_bytes``."""
        if size_bytes <= 0:
            raise ValueError(f"size_bytes must be positive: {size_bytes}")
        observations = self.store.recent(location, since=since)
        confidence = Confidence.from_samples(len(observations))
        if len(observations) < self.min_samples:
            return DownloadPrediction(
                expected_seconds=float("inf"),
                p90_seconds=float("inf"),
                expected_throughput_mbps=0.0,
                confidence=Confidence.NONE
                if not observations
                else Confidence.LOW,
            )
        throughputs = np.array([o.throughput_mbps for o in observations])
        throughputs = throughputs[throughputs > 0]
        if throughputs.size == 0:
            return DownloadPrediction(
                expected_seconds=float("inf"),
                p90_seconds=float("inf"),
                expected_throughput_mbps=0.0,
                confidence=confidence,
            )
        median_mbps = float(np.median(throughputs))
        p10_mbps = float(np.percentile(throughputs, 10))
        bits = size_bytes * 8.0
        return DownloadPrediction(
            expected_seconds=bits / (median_mbps * 1e6),
            p90_seconds=bits / (max(p10_mbps, 1e-6) * 1e6),
            expected_throughput_mbps=median_mbps,
            confidence=confidence,
        )

    def predict_call_quality(
        self,
        location: LocationKey,
        *,
        since: Optional[float] = None,
    ) -> CallQualityPrediction:
        """Expected VoIP MOS at ``location`` from pooled RTT/loss history."""
        observations = self.store.recent(location, since=since)
        confidence = Confidence.from_samples(len(observations))
        if len(observations) < self.min_samples:
            return CallQualityPrediction(
                mos=MOS_MIN,
                expected_rtt_ms=float("inf"),
                expected_loss_rate=1.0,
                acceptable=False,
                confidence=Confidence.NONE
                if not observations
                else Confidence.LOW,
            )
        rtt = float(np.median([o.rtt_ms for o in observations]))
        loss = float(np.median([o.loss_rate for o in observations]))
        mos = e_model_mos(rtt, loss)
        return CallQualityPrediction(
            mos=mos,
            expected_rtt_ms=rtt,
            expected_loss_rate=loss,
            acceptable=mos >= ACCEPTABLE_MOS,
            confidence=confidence,
        )
