"""Cross-host prioritization controller.

Bridges the :class:`~repro.prioritization.ensemble.EnsembleAllocator`
(which decides weights) and the simulator (which runs weighted senders
across *different hosts* of the same entity — "the prioritization
happens across hosts rather than within a single host").
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence

from ..simnet.engine import Simulator
from ..simnet.packet import FlowIdAllocator, FlowSpec
from ..transport.base import ConnectionStats, TcpSender
from ..transport.sink import TcpSink
from .ensemble import EnsembleAllocator, WeightAssignment
from .weighted import WeightedRenoSender


@dataclass
class PrioritizedFlow:
    """One launched flow with its class and weight."""

    flow_id: int
    flow_class: str
    weight: float
    sender: TcpSender
    sink: TcpSink

    def finish(self) -> ConnectionStats:
        """Abort (if running) and collect stats."""
        if not self.sender.finished:
            self.sender.abort()
        self.sink.close()
        return self.sender.stats


#: Bytes per prioritized flow: more than any run moves, so flows persist.
FLOW_SIZE_BYTES = 1_000_000_000


class PriorityController:
    """Launches one entity's flows with ensemble-friendly weights."""

    def __init__(self, sim: Simulator, allocator: EnsembleAllocator) -> None:
        self.sim = sim
        self.allocator = allocator
        self.flows: List[PrioritizedFlow] = []

    def launch(
        self,
        pairs: Sequence[tuple],
        classes: Sequence[str],
        flow_ids: FlowIdAllocator,
    ) -> List[PrioritizedFlow]:
        """Start one persistent flow per (sender_host, receiver_host) pair.

        ``classes[i]`` names the importance class of flow ``i``.
        """
        if len(pairs) != len(classes):
            raise ValueError(
                f"{len(pairs)} host pairs but {len(classes)} class labels"
            )
        ids = [flow_ids.next_id() for _ in pairs]
        assignments = self.allocator.allocate(dict(zip(ids, classes)))
        weight_by_id: Dict[int, WeightAssignment] = {
            a.flow_id: a for a in assignments
        }
        launched = []
        for flow_id, (sender_host, receiver_host), flow_class in zip(
            ids, pairs, classes
        ):
            spec = FlowSpec(
                flow_id=flow_id,
                src=sender_host.name,
                src_port=30_000 + flow_id % 30_000,
                dst=receiver_host.name,
                dst_port=443,
            )
            sink = TcpSink(self.sim, receiver_host, spec)
            assignment = weight_by_id[flow_id]
            sender = WeightedRenoSender(
                self.sim,
                sender_host,
                spec,
                FLOW_SIZE_BYTES,
                weight=assignment.weight,
            )
            sender.start()
            flow = PrioritizedFlow(
                flow_id=flow_id,
                flow_class=flow_class,
                weight=assignment.weight,
                sender=sender,
                sink=sink,
            )
            self.flows.append(flow)
            launched.append(flow)
        return launched

    def finish_all(self) -> Dict[str, List[ConnectionStats]]:
        """Collect stats for every launched flow, grouped by class."""
        by_class: Dict[str, List[ConnectionStats]] = {}
        for flow in self.flows:
            by_class.setdefault(flow.flow_class, []).append(flow.finish())
        return by_class

    def throughput_by_class(self, duration_s: float) -> Dict[str, float]:
        """Aggregate Mbps per class over ``duration_s`` (call after run)."""
        if duration_s <= 0:
            raise ValueError(f"duration must be positive: {duration_s}")
        result: Dict[str, float] = {}
        for flow in self.flows:
            # bytes_goodput is finalized at completion/abort; for a still-
            # running flow, the cumulative ACK is the live equivalent.
            delivered = max(flow.sender.stats.bytes_goodput, flow.sender.snd_una)
            mbps = delivered * 8.0 / duration_s / 1e6
            result[flow.flow_class] = result.get(flow.flow_class, 0.0) + mbps
        return result
