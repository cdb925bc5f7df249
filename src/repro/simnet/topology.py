"""Topology builders.

:class:`DumbbellTopology` reproduces Figure 1 of the paper: N senders and
N receivers joined by two routers and a single bottleneck link whose
buffer is sized at 5x the bottleneck bandwidth-delay product.
A parking-lot builder is included for multi-bottleneck extension
experiments.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from .bounds import check
from .engine import Simulator
from .link import Link, bdp_bytes
from .node import Host, Router
from .queues import DropTailQueue

#: Default access-link speed: fast enough never to be the bottleneck.
DEFAULT_ACCESS_BANDWIDTH_BPS = 1_000_000_000.0

#: The paper sizes the bottleneck buffer at 5x the bandwidth-delay product.
PAPER_BUFFER_BDP_MULTIPLE = 5.0


@dataclass
class DumbbellConfig:
    """Parameters of the Figure-1 dumbbell.

    The paper's Table 3 topology is the default: a 15 Mbps bottleneck and a
    150 ms round-trip time.  The RTT budget is split so the bottleneck link
    carries most of the one-way propagation delay and the access links a
    small remainder, as is conventional for dumbbell setups.
    """

    n_senders: int = 8
    bottleneck_bandwidth_bps: float = 15_000_000.0
    rtt_s: float = 0.150
    buffer_bdp_multiple: float = PAPER_BUFFER_BDP_MULTIPLE
    access_bandwidth_bps: float = DEFAULT_ACCESS_BANDWIDTH_BPS
    access_delay_fraction: float = 0.1

    def __post_init__(self) -> None:
        check("n_senders", self.n_senders, ge=1, integer=True)
        for name in (
            "bottleneck_bandwidth_bps", "rtt_s", "buffer_bdp_multiple",
            "access_bandwidth_bps",
        ):
            check(name, getattr(self, name), gt=0)
        check("access_delay_fraction", self.access_delay_fraction, ge=0, lt=0.5)

    @property
    def one_way_delay_s(self) -> float:
        """Total one-way propagation delay (half the RTT)."""
        return self.rtt_s / 2.0

    @property
    def bottleneck_delay_s(self) -> float:
        """One-way propagation delay of the bottleneck link."""
        return self.one_way_delay_s * (1.0 - 2.0 * self.access_delay_fraction)

    @property
    def access_delay_s(self) -> float:
        """One-way propagation delay of each access link."""
        return self.one_way_delay_s * self.access_delay_fraction

    @property
    def buffer_bytes(self) -> int:
        """Bottleneck buffer size: ``buffer_bdp_multiple`` x BDP."""
        return max(
            1,
            int(
                self.buffer_bdp_multiple
                * bdp_bytes(self.bottleneck_bandwidth_bps, self.rtt_s)
            ),
        )


class DumbbellTopology:
    """The Figure-1 network: senders -- R1 ==bottleneck== R2 -- receivers.

    The forward bottleneck (R1->R2) carries data; the reverse link
    (R2->R1) carries ACKs and is provisioned identically so that ACKs are
    never the constraint in these workloads.
    """

    def __init__(self, sim: Simulator, config: Optional[DumbbellConfig] = None) -> None:
        self.sim = sim
        self.config = config if config is not None else DumbbellConfig()
        cfg = self.config

        self.left_router = Router("R1")
        self.right_router = Router("R2")
        self.senders: List[Host] = []
        self.receivers: List[Host] = []

        self.bottleneck_queue = DropTailQueue(cfg.buffer_bytes, lambda: sim.now)
        self.bottleneck = Link(
            sim,
            "bottleneck",
            cfg.bottleneck_bandwidth_bps,
            cfg.bottleneck_delay_s,
            self.bottleneck_queue,
        )
        self.bottleneck.attach(self.right_router)

        self.reverse_queue = DropTailQueue(cfg.buffer_bytes, lambda: sim.now)
        self.reverse = Link(
            sim,
            "bottleneck-reverse",
            cfg.bottleneck_bandwidth_bps,
            cfg.bottleneck_delay_s,
            self.reverse_queue,
        )
        self.reverse.attach(self.left_router)

        self._links: Dict[str, Link] = {
            self.bottleneck.name: self.bottleneck,
            self.reverse.name: self.reverse,
        }

        for index in range(cfg.n_senders):
            self._add_sender_pair(index)

    def _add_sender_pair(self, index: int) -> None:
        cfg = self.config
        sender = Host(f"s{index}")
        receiver = Host(f"r{index}")

        up = Link(
            self.sim,
            f"access-s{index}",
            cfg.access_bandwidth_bps,
            cfg.access_delay_s,
        )
        up.attach(self.left_router)
        sender.set_uplink(up)

        down = Link(
            self.sim,
            f"access-r{index}-down",
            cfg.access_bandwidth_bps,
            cfg.access_delay_s,
        )
        down.attach(receiver)
        self.right_router.add_route(receiver.name, down)

        # Reverse path for ACKs: receiver -> R2 -> (reverse bottleneck) -> R1 -> sender.
        back_up = Link(
            self.sim,
            f"access-r{index}-up",
            cfg.access_bandwidth_bps,
            cfg.access_delay_s,
        )
        back_up.attach(self.right_router)
        receiver.set_uplink(back_up)

        back_down = Link(
            self.sim,
            f"access-s{index}-down",
            cfg.access_bandwidth_bps,
            cfg.access_delay_s,
        )
        back_down.attach(sender)
        self.left_router.add_route(sender.name, back_down)

        self.left_router.set_default_route(self.bottleneck)
        self.right_router.set_default_route(self.reverse)
        self.right_router.add_route(receiver.name, down)
        self.left_router.add_route(sender.name, back_down)

        for link in (up, down, back_up, back_down):
            self._links[link.name] = link

        self.senders.append(sender)
        self.receivers.append(receiver)

    @property
    def links(self) -> Dict[str, Link]:
        """All links by name."""
        return dict(self._links)



#: One-way propagation delay of each parking-lot hop.
HOP_DELAY_S = 0.01


class ParkingLotTopology:
    """A chain of routers with per-hop cross traffic entry points.

    Used by extension experiments to show that Phi's congestion-context
    abstraction is not specific to a single bottleneck.  Hosts ``s0..s{n}``
    send to ``r0..r{n}``; flow *i* enters at router *i* and exits at the
    last router, so later hops aggregate more flows.
    """

    def __init__(
        self,
        sim: Simulator,
        n_hops: int,
        hop_bandwidth_bps: float = 10_000_000.0,
    ) -> None:
        check("n_hops", n_hops, ge=1, integer=True)
        check("hop_bandwidth_bps", hop_bandwidth_bps, gt=0)
        self.sim = sim
        self.routers = [Router(f"P{i}") for i in range(n_hops + 1)]
        self.hop_links: List[Link] = []
        self.senders: List[Host] = []
        self.receivers: List[Host] = []

        hop_delay_s = HOP_DELAY_S
        rtt_estimate = 2.0 * hop_delay_s * n_hops
        buffer_bytes = max(
            1, int(PAPER_BUFFER_BDP_MULTIPLE * bdp_bytes(hop_bandwidth_bps, rtt_estimate))
        )
        for i in range(n_hops):
            queue = DropTailQueue(buffer_bytes, lambda: sim.now)
            forward = Link(sim, f"hop{i}", hop_bandwidth_bps, hop_delay_s, queue)
            forward.attach(self.routers[i + 1])
            self.routers[i].set_default_route(forward)
            self.hop_links.append(forward)

        for i in range(n_hops):
            sender = Host(f"s{i}")
            receiver = Host(f"r{i}")
            up = Link(sim, f"pl-access-s{i}", DEFAULT_ACCESS_BANDWIDTH_BPS, 0.001)
            up.attach(self.routers[i])
            sender.set_uplink(up)

            down = Link(sim, f"pl-access-r{i}", DEFAULT_ACCESS_BANDWIDTH_BPS, 0.001)
            down.attach(receiver)
            self.routers[-1].add_route(receiver.name, down)

            # Reverse path: direct host-to-host link so ACKs skip the chain;
            # the experiments in this topology study forward congestion only.
            back = Link(sim, f"pl-back-r{i}", DEFAULT_ACCESS_BANDWIDTH_BPS, hop_delay_s)
            back.attach(sender)
            receiver.set_uplink(back)
            receiver.add_route(sender.name, back)

            self.senders.append(sender)
            self.receivers.append(receiver)
