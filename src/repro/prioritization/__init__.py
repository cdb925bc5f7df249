"""Cross-flow prioritization (Section 3.3): importance-weighted senders
whose ensemble stays TCP-friendly in aggregate."""

from .controller import PrioritizedFlow, PriorityController
from .ensemble import EnsembleAllocator, FlowClass, WeightAssignment
from .weighted import WeightedRenoSender

__all__ = [
    "EnsembleAllocator",
    "FlowClass",
    "PrioritizedFlow",
    "PriorityController",
    "WeightAssignment",
    "WeightedRenoSender",
]
