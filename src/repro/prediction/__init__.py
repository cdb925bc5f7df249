"""Performance prediction (Section 3.5): quantile predictions of download
time and VoIP quality from location-pooled observations."""

from .history import LocationKey, ObservationStore, PerfObservation
from .predictor import (
    ACCEPTABLE_MOS,
    MOS_MAX,
    MOS_MIN,
    CallQualityPrediction,
    Confidence,
    DownloadPrediction,
    PerformancePredictor,
    e_model_mos,
)

__all__ = [
    "ACCEPTABLE_MOS",
    "MOS_MAX",
    "MOS_MIN",
    "CallQualityPrediction",
    "Confidence",
    "DownloadPrediction",
    "LocationKey",
    "ObservationStore",
    "PerfObservation",
    "PerformancePredictor",
    "e_model_mos",
]
