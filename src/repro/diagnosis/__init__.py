"""Problem diagnosis (Section 3.4): time-series anomaly detection on
request volumes sliced by (AS, metro, service), and dimensional
localization of unreachability events (Figure 5)."""

from .detector import DetectedDip, UnreachabilityDetector
from .events import (
    BIN_MINUTES,
    BINS_PER_DAY,
    OutageSpec,
    SliceKey,
    TelemetryGenerator,
    slice_keys,
)
from .localize import (
    DIMENSION_NAMES,
    LocalizedEvent,
    group_dips,
    localize,
    localize_group,
)
from .report import IncidentReport, render_incident, severity_grade
from .timeseries import MAD_TO_SIGMA, BaselinePoint, SeasonalBaseline

__all__ = [
    "BIN_MINUTES",
    "BINS_PER_DAY",
    "DIMENSION_NAMES",
    "MAD_TO_SIGMA",
    "BaselinePoint",
    "DetectedDip",
    "IncidentReport",
    "LocalizedEvent",
    "OutageSpec",
    "SeasonalBaseline",
    "SliceKey",
    "TelemetryGenerator",
    "UnreachabilityDetector",
    "group_dips",
    "localize",
    "localize_group",
    "render_incident",
    "severity_grade",
    "slice_keys",
]
