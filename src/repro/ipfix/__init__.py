"""IPFIX pipeline: synthetic egress traffic, 1-in-4096 sampling, /24+minute
aggregation, and the Section 2.1 sharing-opportunity analysis."""

from .analysis import (
    DEFAULT_THRESHOLDS,
    SharingStats,
    companion_counts,
    sharing_ccdf,
    sharing_stats,
)
from .collector import IpfixCollector, SlotSummary
from .records import EgressFlow, SampledHeader, dst_slash24, minute_slice
from .sampler import PAPER_SAMPLING_RATE, IpfixSampler
from .traffic import EgressTrafficModel

__all__ = [
    "DEFAULT_THRESHOLDS",
    "PAPER_SAMPLING_RATE",
    "EgressFlow",
    "EgressTrafficModel",
    "IpfixCollector",
    "IpfixSampler",
    "SampledHeader",
    "SharingStats",
    "SlotSummary",
    "companion_counts",
    "dst_slash24",
    "minute_slice",
    "sharing_ccdf",
    "sharing_stats",
]
