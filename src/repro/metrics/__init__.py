"""Objectives and aggregation: network power metrics and run summaries."""

from .power import MIN_DELAY_MS, log_power, power, power_with_loss
from .summary import (
    CrossRunSummary,
    RunMetrics,
    summarize_connections,
    summarize_runs,
)

__all__ = [
    "MIN_DELAY_MS",
    "CrossRunSummary",
    "RunMetrics",
    "log_power",
    "power",
    "power_with_loss",
    "summarize_connections",
    "summarize_runs",
]
