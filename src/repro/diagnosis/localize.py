"""Dimensional localization of detected unreachability events.

Given the per-slice dips found by the detector, determines the most
specific (AS, metro, service) pattern that explains them — Figure 5's
outcome: "an unreachability event ... localized to an ISP network on a
particular metro".  The cross-sender aggregation is what makes this
possible: a single client only knows *it* cannot reach the service; the
provider, seeing affected and unaffected slices side by side, can name
the culprit dimension values.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Set

from .detector import DetectedDip
from .events import SliceKey

DIMENSION_NAMES = ("asn", "metro", "service")


@dataclass(frozen=True)
class LocalizedEvent:
    """A grouped, localized unreachability event.

    ``None`` in a dimension means the event spans all its values (i.e.
    the dimension is not implicated).
    """

    asn: Optional[str]
    metro: Optional[str]
    service: Optional[str]
    start_bin: int
    end_bin: int
    affected_slices: int
    mean_drop_fraction: float

    @property
    def duration_bins(self) -> int:
        """Event length in bins."""
        return self.end_bin - self.start_bin

    def describe(self) -> str:
        """Human-readable localization, e.g. ``asn=isp-a, metro=nyc``."""
        parts = []
        for name, value in zip(DIMENSION_NAMES, (self.asn, self.metro, self.service)):
            if value is not None:
                parts.append(f"{name}={value}")
        return ", ".join(parts) if parts else "global"


#: Dips this many bins apart or closer belong to one candidate event.
SLACK_BINS = 2


def _overlaps(a: DetectedDip, b: DetectedDip) -> bool:
    return a.start_bin <= b.end_bin + SLACK_BINS and b.start_bin <= a.end_bin + SLACK_BINS


def group_dips(dips: Sequence[DetectedDip]) -> List[List[DetectedDip]]:
    """Cluster per-slice dips that overlap in time into candidate events."""
    groups: List[List[DetectedDip]] = []
    for dip in sorted(dips, key=lambda d: d.start_bin):
        placed = False
        for group in groups:
            if any(_overlaps(dip, member) for member in group):
                group.append(dip)
                placed = True
                break
        if not placed:
            groups.append([dip])
    return groups


def localize_group(
    group: Sequence[DetectedDip],
    all_keys: Sequence[SliceKey],
) -> LocalizedEvent:
    """Name the dimension values that characterize one event group.

    A dimension value is implicated when the affected slices cover *all*
    of that value's slices and *only* that value — the classic "common
    denominator" attribution.
    """
    if not group:
        raise ValueError("cannot localize an empty group")
    affected: Set[SliceKey] = {dip.key for dip in group}

    localized: List[Optional[str]] = []
    for dim in range(3):
        affected_values = {key[dim] for key in affected}
        if len(affected_values) == 1:
            value = next(iter(affected_values))
            localized.append(value)
        else:
            localized.append(None)

    # Verify coverage: every slice matching the localized pattern should be
    # affected, otherwise generalize the weakest dimension to None.
    def matches(key: SliceKey, pattern: List[Optional[str]]) -> bool:
        return all(p is None or key[d] == p for d, p in enumerate(pattern))

    matching = [key for key in all_keys if matches(key, localized)]
    coverage = len(affected & set(matching)) / len(matching) if matching else 0.0

    start = min(dip.start_bin for dip in group)
    end = max(dip.end_bin for dip in group)
    mean_drop = sum(dip.mean_drop_fraction for dip in group) / len(group)
    return LocalizedEvent(
        asn=localized[0],
        metro=localized[1],
        service=localized[2],
        start_bin=start,
        end_bin=end,
        affected_slices=len(affected),
        mean_drop_fraction=mean_drop if coverage > 0 else 0.0,
    )


def localize(
    dips: Sequence[DetectedDip],
    all_keys: Sequence[SliceKey],
) -> List[LocalizedEvent]:
    """Full pipeline: cluster dips, then localize each cluster."""
    return [localize_group(group, all_keys) for group in group_dips(dips)]
