"""The centralized IPFIX collector.

Aggregates sampled headers into the paper's "compact spatio-temporal
granularity (/24 subnet and 1-minute time slice)" and counts the unique
4-tuples observed per slot.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Dict, Iterable, List, Set, Tuple

from .records import FourTuple, SampledHeader

SlotKey = Tuple[str, int]
"""(destination /24, minute index)."""


class IpfixCollector:
    """Receives sampled headers and maintains per-slot flow sets."""

    def __init__(self) -> None:
        self._slots: Dict[SlotKey, Set[FourTuple]] = defaultdict(set)
        self.headers_received = 0

    def ingest(self, header: SampledHeader) -> None:
        """Fold one sampled header into the aggregation."""
        key = (header.dst_subnet, header.minute)
        self._slots[key].add(header.four_tuple)
        self.headers_received += 1

    def ingest_many(self, headers: Iterable[SampledHeader]) -> None:
        """Fold a batch of sampled headers in."""
        for header in headers:
            self.ingest(header)

    def flows_with_slot_sizes(self) -> List[Tuple[FourTuple, int]]:
        """Every observed (flow, slot-size) pair.

        A flow sampled in k slots yields k entries, matching the paper's
        per-flow-observation framing ("50% of the flows share the WAN path
        with at least 5 other flows").
        """
        result = []
        for flows in self._slots.values():
            size = len(flows)
            for flow in flows:
                result.append((flow, size))
        return result

    @property
    def slot_count(self) -> int:
        """Number of non-empty aggregation slots."""
        return len(self._slots)
