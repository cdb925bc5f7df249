"""On/off workload sources (Section 2.2).

"Each sender launches fresh connections sequentially ('on' periods)
separated by idle 'off' periods, where the amount of data transferred
during 'on' periods and the duration of 'off' periods are picked from
separate exponential distributions."

An :class:`OnOffSource` drives one sender/receiver host pair through that
cycle.  The congestion-control flavour is injected through a
``sender_factory`` so the same workload can run Cubic (any parameters),
NewReno, Remy, or Phi-wrapped variants.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Optional, Protocol

import numpy as np

from ..simnet.bounds import check
from ..simnet.engine import Simulator
from ..simnet.monitor import ActiveFlowTracker
from ..simnet.node import Host
from ..simnet.packet import MSS_BYTES, FlowIdAllocator, FlowSpec
from ..transport.base import ConnectionStats, TcpSender
from ..transport.sink import TcpSink


class SenderFactory(Protocol):
    """Builds a transport agent for one connection."""

    def __call__(
        self,
        sim: Simulator,
        host: Host,
        spec: FlowSpec,
        flow_size_bytes: int,
        on_complete: Callable[[TcpSender], None],
    ) -> TcpSender:  # pragma: no cover - protocol
        ...


@dataclass
class OnOffConfig:
    """Workload parameters for one on/off source.

    Defaults match the paper's Figure 2a/2b setting: mean connection
    length 500 KB, mean off time 2 s.
    """

    mean_on_bytes: float = 500_000.0
    mean_off_s: float = 2.0
    min_flow_bytes: int = MSS_BYTES
    start_jitter_s: float = 0.5

    def __post_init__(self) -> None:
        check("mean_on_bytes", self.mean_on_bytes, gt=0)
        check("mean_off_s", self.mean_off_s, ge=0)
        check("min_flow_bytes", self.min_flow_bytes, ge=1, integer=True)
        check("start_jitter_s", self.start_jitter_s, ge=0)


#: Source port of a source's first connection; later ones count up.
SRC_PORT_BASE = 10_000


class OnOffSource:
    """Sequential exponential on/off connection generator for one host pair."""

    def __init__(
        self,
        sim: Simulator,
        sender_host: Host,
        receiver_host: Host,
        sender_factory: SenderFactory,
        flow_ids: FlowIdAllocator,
        rng: np.random.Generator,
        config: Optional[OnOffConfig] = None,
        *,
        flow_tracker: Optional[ActiveFlowTracker] = None,
    ) -> None:
        self.sim = sim
        self.sender_host = sender_host
        self.receiver_host = receiver_host
        self.sender_factory = sender_factory
        self.flow_ids = flow_ids
        self.rng = rng
        self.config = config if config is not None else OnOffConfig()
        self.flow_tracker = flow_tracker

        self.completed: List[ConnectionStats] = []
        self.connections_launched = 0
        self._active_sender: Optional[TcpSender] = None
        self._active_sink: Optional[TcpSink] = None
        self._stopped = False

    def start(self) -> None:
        """Schedule the first connection after a uniform start jitter."""
        jitter = float(self.rng.uniform(0.0, max(1e-9, self.config.start_jitter_s)))
        self.sim.schedule(jitter, self._launch_connection)

    def stop(self) -> None:
        """Stop launching new connections; abort the active one if any."""
        self._stopped = True
        if self._active_sender is not None and not self._active_sender.finished:
            self._active_sender.abort()
            self._teardown_active(completed=False)

    def _draw_flow_size(self) -> int:
        size = self.rng.exponential(self.config.mean_on_bytes)
        return max(self.config.min_flow_bytes, int(size))

    def _draw_off_time(self) -> float:
        if self.config.mean_off_s <= 0:
            return 0.0
        return float(self.rng.exponential(self.config.mean_off_s))

    def _launch_connection(self) -> None:
        if self._stopped:
            return
        flow_id = self.flow_ids.next_id()
        self.connections_launched += 1
        spec = FlowSpec(
            flow_id=flow_id,
            src=self.sender_host.name,
            src_port=SRC_PORT_BASE + (self.connections_launched % 50_000),
            dst=self.receiver_host.name,
            dst_port=443,
        )
        flow_size = self._draw_flow_size()
        self._active_sink = TcpSink(self.sim, self.receiver_host, spec)
        self._active_sender = self.sender_factory(
            self.sim, self.sender_host, spec, flow_size, self._on_connection_done
        )
        if self.flow_tracker is not None:
            self.flow_tracker.flow_started()
        self._active_sender.start()

    def _on_connection_done(self, sender: TcpSender) -> None:
        self.completed.append(sender.stats)
        self._teardown_active(completed=True)
        if self._stopped:
            return
        self.sim.schedule(self._draw_off_time(), self._launch_connection)

    def _teardown_active(self, completed: bool) -> None:
        if self._active_sender is not None and self.flow_tracker is not None:
            self.flow_tracker.flow_finished()
        if self._active_sink is not None:
            self._active_sink.close()
        self._active_sender = None
        self._active_sink = None

    @property
    def active(self) -> bool:
        """Whether a connection is currently in flight."""
        return self._active_sender is not None and not self._active_sender.finished

    def all_stats(self) -> List[ConnectionStats]:
        """Completed connections' stats (the active one is not among them)."""
        return list(self.completed)
