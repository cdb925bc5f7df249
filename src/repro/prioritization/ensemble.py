"""Ensemble-level prioritization weights (Section 3.3).

"A single entity could have some of its flows be more (or less)
aggressive than others (say based on their 'importance'), while still
ensuring that the ensemble of flows remains TCP-friendly."

An :class:`EnsembleAllocator` turns per-flow importance scores into
aggressiveness *weights* that sum to the ensemble's flow count, so the
ensemble behaves in aggregate like the same number of standard
TCP-friendly flows while shifting capacity toward important flows —
the cross-host generalization of TCP Session / Congestion Manager.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Mapping, Sequence

from ..simnet.bounds import check


@dataclass(frozen=True)
class FlowClass:
    """An importance class, e.g. HD video vs bulk backup."""

    name: str
    importance: float

    def __post_init__(self) -> None:
        check("importance", self.importance, gt=0)


@dataclass(frozen=True)
class WeightAssignment:
    """The aggressiveness weight assigned to one flow."""

    flow_id: int
    flow_class: str
    weight: float


#: Bounds on any one flow's weight, so no class starves or floods.
MIN_WEIGHT = 0.1
MAX_WEIGHT = 8.0


class EnsembleAllocator:
    """Assigns TCP-friendliness-preserving weights across an ensemble."""

    def __init__(self, classes: Sequence[FlowClass]) -> None:
        if not classes:
            raise ValueError("at least one flow class is required")
        names = [c.name for c in classes]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate class names: {names}")
        self._classes: Dict[str, FlowClass] = {c.name: c for c in classes}

    def allocate(self, flows: Mapping[int, str]) -> List[WeightAssignment]:
        """Weights for ``{flow_id: class_name}``, normalized to sum to n.

        The normalization is the TCP-friendliness invariant: n flows with
        weights summing to n consume, in aggregate, the fair share of n
        standard flows under AIMD-style sharing.
        """
        if not flows:
            return []
        unknown = {name for name in flows.values()} - set(self._classes)
        if unknown:
            raise ValueError(f"unknown flow classes: {sorted(unknown)}")

        raw = {
            flow_id: self._classes[name].importance
            for flow_id, name in flows.items()
        }
        n = len(raw)
        total = sum(raw.values())
        assignments = []
        for flow_id, name in flows.items():
            weight = raw[flow_id] / total * n
            weight = max(MIN_WEIGHT, min(MAX_WEIGHT, weight))
            assignments.append(
                WeightAssignment(flow_id=flow_id, flow_class=name, weight=weight)
            )
        # Clamping can disturb the sum; renormalize once within bounds.
        weight_sum = sum(a.weight for a in assignments)
        scale = n / weight_sum
        rescaled = []
        for assignment in assignments:
            weight = assignment.weight * scale
            weight = max(MIN_WEIGHT, min(MAX_WEIGHT, weight))
            rescaled.append(
                WeightAssignment(
                    flow_id=assignment.flow_id,
                    flow_class=assignment.flow_class,
                    weight=weight,
                )
            )
        return rescaled
