"""Informed adaptation without cooperation (Section 3.2): shared-data-
driven jitter buffer sizing and duplicate-ACK threshold selection."""

from .dupack import (
    MAX_THRESHOLD,
    MIN_THRESHOLD,
    DupAckRecommendation,
    PathKey,
    ReorderingObservatory,
)
from .jitterbuffer import (
    DEFAULT_SAFETY_FACTOR,
    UNINFORMED_DEFAULT_BUFFER_S,
    JitterBufferRecommendation,
    JitterObservatory,
    late_loss_rate,
)

__all__ = [
    "DEFAULT_SAFETY_FACTOR",
    "MAX_THRESHOLD",
    "MIN_THRESHOLD",
    "UNINFORMED_DEFAULT_BUFFER_S",
    "DupAckRecommendation",
    "JitterBufferRecommendation",
    "JitterObservatory",
    "PathKey",
    "ReorderingObservatory",
    "late_loss_rate",
]
