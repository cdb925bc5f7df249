"""Open-loop Poisson flow arrivals.

The paper's workload is closed-loop (each sender alternates on/off); an
open-loop model — flows arriving as a Poisson process with heavy-tailed
sizes, independent of completions — is the standard alternative for
dialing in an exact offered load, and is used by the extension benches
to sweep load precisely:

    offered_load = arrival_rate * mean_flow_bytes * 8 / capacity
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

import numpy as np

from ..simnet.bounds import check
from ..simnet.engine import Simulator
from ..simnet.monitor import ActiveFlowTracker
from ..simnet.packet import MSS_BYTES, FlowIdAllocator, FlowSpec
from ..transport.base import ConnectionStats, TcpSender
from ..transport.sink import TcpSink
from .onoff import SenderFactory


@dataclass(frozen=True)
class PoissonConfig:
    """Arrival process parameters."""

    arrival_rate_per_s: float
    mean_flow_bytes: float

    def __post_init__(self) -> None:
        check("arrival_rate_per_s", self.arrival_rate_per_s, gt=0)
        check("mean_flow_bytes", self.mean_flow_bytes, gt=0)

    def offered_load(self, capacity_bps: float) -> float:
        """Offered load as a fraction of ``capacity_bps``."""
        if capacity_bps <= 0:
            raise ValueError(f"capacity must be positive: {capacity_bps}")
        return self.arrival_rate_per_s * self.mean_flow_bytes * 8.0 / capacity_bps

    @classmethod
    def for_load(
        cls,
        load: float,
        capacity_bps: float,
        mean_flow_bytes: float = 500_000.0,
    ) -> "PoissonConfig":
        """Configuration that offers ``load`` (fraction) of the capacity."""
        if not 0 < load:
            raise ValueError(f"load must be positive: {load}")
        rate = load * capacity_bps / (mean_flow_bytes * 8.0)
        return cls(arrival_rate_per_s=rate, mean_flow_bytes=mean_flow_bytes)


#: Flows in flight beyond which an arrival is rejected (counted, not run).
MAX_CONCURRENT = 5_000


class PoissonFlowGenerator:
    """Launches flows Poisson-style over a pool of host pairs.

    Each arriving flow picks the next host pair round-robin (so traffic
    spreads across the dumbbell's senders) and runs concurrently with
    whatever is already in flight — unlike :class:`OnOffSource`, arrivals
    never wait for completions.
    """

    def __init__(
        self,
        sim: Simulator,
        pairs: Sequence[tuple],
        sender_factory: SenderFactory,
        flow_ids: FlowIdAllocator,
        rng: np.random.Generator,
        config: PoissonConfig,
        *,
        flow_tracker: Optional[ActiveFlowTracker] = None,
    ) -> None:
        if not pairs:
            raise ValueError("at least one host pair is required")
        self.sim = sim
        self.pairs = list(pairs)
        self.sender_factory = sender_factory
        self.flow_ids = flow_ids
        self.rng = rng
        self.config = config
        self.flow_tracker = flow_tracker

        self.completed: List[ConnectionStats] = []
        self.launched = 0
        self.rejected = 0
        self._active: dict = {}
        self._next_pair = 0
        self._stopped = False

    def start(self) -> None:
        """Schedule the first arrival."""
        self.sim.schedule(self._draw_interarrival(), self._arrival)

    def stop(self) -> None:
        """Stop arrivals and abort in-flight flows."""
        self._stopped = True
        for sender, sink in list(self._active.values()):
            if not sender.finished:
                sender.abort()
            sink.close()
            if self.flow_tracker is not None:
                self.flow_tracker.flow_finished()
        self._active.clear()

    def _draw_interarrival(self) -> float:
        return float(self.rng.exponential(1.0 / self.config.arrival_rate_per_s))

    def _draw_size(self) -> int:
        size = self.rng.exponential(self.config.mean_flow_bytes)
        return max(MSS_BYTES, int(size))

    def _arrival(self) -> None:
        if self._stopped:
            return
        self.sim.schedule(self._draw_interarrival(), self._arrival)
        if len(self._active) >= MAX_CONCURRENT:
            self.rejected += 1
            return
        sender_host, receiver_host = self.pairs[self._next_pair]
        self._next_pair = (self._next_pair + 1) % len(self.pairs)

        flow_id = self.flow_ids.next_id()
        self.launched += 1
        spec = FlowSpec(
            flow_id=flow_id,
            src=sender_host.name,
            src_port=50_000 + flow_id % 15_000,
            dst=receiver_host.name,
            dst_port=443,
        )
        sink = TcpSink(self.sim, receiver_host, spec)
        sender = self.sender_factory(
            self.sim, sender_host, spec, self._draw_size(), self._flow_done
        )
        self._active[flow_id] = (sender, sink)
        if self.flow_tracker is not None:
            self.flow_tracker.flow_started()
        sender.start()

    def _flow_done(self, sender: TcpSender) -> None:
        self.completed.append(sender.stats)
        entry = self._active.pop(sender.spec.flow_id, None)
        if entry is not None:
            entry[1].close()
        if self.flow_tracker is not None:
            self.flow_tracker.flow_finished()
