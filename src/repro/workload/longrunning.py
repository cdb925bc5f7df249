"""Long-running (persistent) bulk senders, for the Figure 2c setting:
"100 long-running connections, with the bottleneck link being 99%
[utilized]".

Each :class:`LongRunningFlow` opens one connection with an effectively
infinite amount of data and runs until the experiment ends, at which
point it is aborted and its partial statistics collected.
"""

from __future__ import annotations

from typing import List, Optional

import numpy as np

from ..simnet.engine import Simulator
from ..simnet.monitor import ActiveFlowTracker
from ..simnet.node import Host
from ..simnet.packet import FlowIdAllocator, FlowSpec
from ..transport.base import ConnectionStats, TcpSender
from ..transport.sink import TcpSink
from .onoff import SenderFactory

#: "Infinite" flow size for persistent connections (1 GB is far more than
#: any experiment horizon can drain at the paper's link speeds).
PERSISTENT_FLOW_BYTES = 1_000_000_000


class LongRunningFlow:
    """One persistent bulk-transfer connection."""

    def __init__(
        self,
        sim: Simulator,
        sender_host: Host,
        receiver_host: Host,
        sender_factory: SenderFactory,
        flow_ids: FlowIdAllocator,
        *,
        start_time: float = 0.0,
        flow_tracker: Optional[ActiveFlowTracker] = None,
    ) -> None:
        self.sim = sim
        self.flow_tracker = flow_tracker
        flow_id = flow_ids.next_id()
        self.spec = FlowSpec(
            flow_id=flow_id,
            src=sender_host.name,
            src_port=20_000 + flow_id % 40_000,
            dst=receiver_host.name,
            dst_port=443,
        )
        self.sink = TcpSink(sim, receiver_host, self.spec)
        self.sender = sender_factory(
            sim, sender_host, self.spec, PERSISTENT_FLOW_BYTES, self._on_complete
        )
        sim.schedule_at(max(start_time, sim.now), self._start)

    def _start(self) -> None:
        if self.flow_tracker is not None:
            self.flow_tracker.flow_started()
        self.sender.start()

    def _on_complete(self, sender: TcpSender) -> None:
        # Persistent flows are not expected to drain within an experiment;
        # if one does, it simply stops (stats are kept either way).
        if self.flow_tracker is not None:
            self.flow_tracker.flow_finished()

    def finish(self) -> ConnectionStats:
        """Abort (if still running) and return the accumulated stats."""
        if not self.sender.finished:
            self.sender.abort()
            if self.flow_tracker is not None:
                self.flow_tracker.flow_finished()
        self.sink.close()
        return self.sender.stats


def launch_long_running_flows(
    sim: Simulator,
    pairs: List[tuple],
    sender_factory: SenderFactory,
    flow_ids: FlowIdAllocator,
    rng: np.random.Generator,
    *,
    flow_tracker: Optional[ActiveFlowTracker] = None,
) -> List[LongRunningFlow]:
    """Start one persistent flow per (sender_host, receiver_host) pair.

    Start times are spread uniformly over the first second to avoid a
    synchronized slow-start stampede at t=0.
    """
    flows = []
    for sender_host, receiver_host in pairs:
        start = float(rng.uniform(0.0, 1.0))
        flows.append(
            LongRunningFlow(
                sim,
                sender_host,
                receiver_host,
                sender_factory,
                flow_ids,
                start_time=start,
                flow_tracker=flow_tracker,
            )
        )
    return flows
