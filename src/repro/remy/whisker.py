"""Whiskers: Remy's rule table.

A :class:`WhiskerTable` partitions the memory space into axis-aligned
boxes ("whiskers"), each carrying an :class:`Action`.  The Phi variant
("Remy-Phi") adds the ``util`` dimension to the partition so the learned
policy can condition directly on shared bottleneck utilization.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from ..simnet.bounds import check
from .memory import DIMENSIONS, DOMAIN, Memory

#: Bounds for action components during training.
ACTION_BOUNDS = {
    "window_increment": (-10.0, 20.0),
    "window_multiple": (0.1, 2.0),
    "intersend_s": (0.0001, 1.0),
}


@dataclass(frozen=True)
class Action:
    """What a whisker tells the sender to do.

    ``cwnd <- window_multiple * cwnd + window_increment`` and pace packets
    at least ``intersend_s`` apart, exactly Remy's action space.
    """

    window_increment: float = 1.0
    window_multiple: float = 1.0
    intersend_s: float = 0.003

    def __post_init__(self) -> None:
        for name, (lo, hi) in ACTION_BOUNDS.items():
            check(name, getattr(self, name), ge=lo, le=hi)

    def apply(self, cwnd: float) -> float:
        """The new congestion window after this action."""
        return max(1.0, self.window_multiple * cwnd + self.window_increment)

    def neighbours(self) -> List["Action"]:
        """Candidate perturbations explored by the trainer."""
        candidates = []
        for delta in (-2.0, -1.0, 1.0, 2.0):
            candidates.append(self._try(window_increment=self.window_increment + delta))
        for factor in (0.8, 0.9, 1.1, 1.2):
            candidates.append(self._try(window_multiple=self.window_multiple * factor))
        for factor in (0.5, 0.75, 1.333, 2.0):
            candidates.append(self._try(intersend_s=self.intersend_s * factor))
        return [c for c in candidates if c is not None]

    def _try(self, **kwargs) -> Optional["Action"]:
        values = {
            "window_increment": self.window_increment,
            "window_multiple": self.window_multiple,
            "intersend_s": self.intersend_s,
        }
        values.update(kwargs)
        lo, hi = ACTION_BOUNDS["window_increment"]
        values["window_increment"] = min(hi, max(lo, values["window_increment"]))
        lo, hi = ACTION_BOUNDS["window_multiple"]
        values["window_multiple"] = min(hi, max(lo, values["window_multiple"]))
        lo, hi = ACTION_BOUNDS["intersend_s"]
        values["intersend_s"] = min(hi, max(lo, values["intersend_s"]))
        return Action(**values)

    @classmethod
    def default(cls) -> "Action":
        """A sane conservative starting action."""
        return cls(window_increment=1.0, window_multiple=1.0, intersend_s=0.003)


Box = Dict[str, Tuple[float, float]]


@dataclass
class Whisker:
    """One rule: an axis-aligned box in memory space plus an action."""

    bounds: Box
    action: Action
    use_count: int = 0

    def contains(self, memory: Memory) -> bool:
        """Whether ``memory`` falls inside this whisker's box.

        Boxes are half-open except at the domain's upper edge, where they
        are closed, so a partitioned table covers the whole domain.
        """
        for dim, (lo, hi) in self.bounds.items():
            value = memory.value(dim)
            if value < lo or (value >= hi and hi < DOMAIN[dim][1]):
                return False
        return True


class WhiskerTable:
    """A complete rule table covering the memory domain.

    Parameters
    ----------
    dimensions:
        Which memory features the table partitions on.  The classic Remy
        table uses ``("ack_ewma", "send_ewma", "rtt_ratio")``; Remy-Phi
        adds ``"util"``.
    """

    CLASSIC_DIMENSIONS: Tuple[str, ...] = ("ack_ewma", "send_ewma", "rtt_ratio")
    PHI_DIMENSIONS: Tuple[str, ...] = ("ack_ewma", "send_ewma", "rtt_ratio", "util")

    def __init__(
        self,
        dimensions: Sequence[str] = CLASSIC_DIMENSIONS,
        whiskers: Optional[List[Whisker]] = None,
    ) -> None:
        unknown = set(dimensions) - set(DIMENSIONS)
        if unknown:
            raise ValueError(f"unknown memory dimensions: {sorted(unknown)}")
        self.dimensions: Tuple[str, ...] = tuple(dimensions)
        if whiskers is None:
            bounds = {dim: DOMAIN[dim] for dim in self.dimensions}
            whiskers = [Whisker(bounds=bounds, action=Action.default())]
        self.whiskers = whiskers

    @classmethod
    def partitioned(
        cls,
        dimensions: Sequence[str],
        split_dimension: str,
        n_parts: int,
        action: Optional[Action] = None,
    ) -> "WhiskerTable":
        """A table pre-partitioned into ``n_parts`` equal bins along one
        dimension (all other dimensions span their full domain).

        Used to seed Remy-Phi training with distinct whiskers per shared-
        utilization band.
        """
        if split_dimension not in dimensions:
            raise ValueError(
                f"split dimension {split_dimension!r} not in table dimensions"
            )
        if n_parts < 1:
            raise ValueError(f"n_parts must be >= 1, got {n_parts}")
        base_action = action if action is not None else Action.default()
        lo, hi = DOMAIN[split_dimension]
        width = (hi - lo) / n_parts
        whiskers = []
        for part in range(n_parts):
            bounds = {dim: DOMAIN[dim] for dim in dimensions}
            bounds[split_dimension] = (lo + part * width, lo + (part + 1) * width)
            whiskers.append(Whisker(bounds=bounds, action=base_action))
        return cls(dimensions, whiskers)

    def find(self, memory: Memory) -> Whisker:
        """The whisker whose box contains ``memory`` (after clamping)."""
        clamped = memory.clamped()
        for whisker in self.whiskers:
            if whisker.contains(clamped):
                return whisker
        raise LookupError(f"no whisker covers memory {clamped}")

    def act(self, memory: Memory) -> Action:
        """Look up and record the action for ``memory``."""
        whisker = self.find(memory)
        whisker.use_count += 1
        return whisker.action

    def copy(self) -> "WhiskerTable":
        """Deep copy (actions are immutable; boxes are copied)."""
        return WhiskerTable(
            self.dimensions,
            [
                Whisker(bounds=dict(w.bounds), action=w.action, use_count=w.use_count)
                for w in self.whiskers
            ],
        )

    def __len__(self) -> int:
        return len(self.whiskers)
