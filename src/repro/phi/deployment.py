"""Deployment mixes: full, partial, and no coordination.

Section 2.2.3 (Figure 4) studies incremental deployment: "one half of the
senders ('unmodified') sticks with the default parameter settings for TCP
Cubic, while the other half ('modified') uses the parameter setting that
would have been optimal had all senders been cooperating."

:func:`deployment_factories` assigns a factory per sender slot for an
arbitrary modified fraction, enabling both Figure 4 (fraction = 0.5) and
the adoption-incentive ablation (fraction swept 0 -> 1).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Sequence


@dataclass(frozen=True)
class SenderAssignment:
    """Which factory a sender slot uses, and whether it is Phi-modified."""

    index: int
    modified: bool
    factory: Callable


def deployment_factories(
    n_senders: int,
    modified_fraction: float,
    modified_factory: Callable,
    unmodified_factory: Callable,
) -> List[SenderAssignment]:
    """Assign factories to sender slots for a partial deployment.

    The first ``round(n * fraction)`` slots are modified — deterministic,
    so seeded runs are reproducible; slot order carries no meaning in a
    symmetric dumbbell.
    """
    if n_senders <= 0:
        raise ValueError(f"n_senders must be positive: {n_senders}")
    if not 0.0 <= modified_fraction <= 1.0:
        raise ValueError(
            f"modified_fraction must be in [0, 1]: {modified_fraction}"
        )
    n_modified = round(n_senders * modified_fraction)
    assignments = []
    for index in range(n_senders):
        modified = index < n_modified
        assignments.append(
            SenderAssignment(
                index=index,
                modified=modified,
                factory=modified_factory if modified else unmodified_factory,
            )
        )
    return assignments


def split_stats(
    assignments: Sequence[SenderAssignment],
    per_sender_stats: Sequence[list],
) -> tuple:
    """Split per-sender stat lists into (modified, unmodified) pools."""
    if len(assignments) != len(per_sender_stats):
        raise ValueError(
            f"{len(assignments)} assignments vs {len(per_sender_stats)} stat lists"
        )
    modified: list = []
    unmodified: list = []
    for assignment, stats in zip(assignments, per_sender_stats):
        target = modified if assignment.modified else unmodified
        target.extend(stats)
    return modified, unmodified
