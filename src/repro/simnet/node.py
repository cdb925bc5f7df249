"""Network nodes: hosts and routers.

A :class:`Host` terminates flows — transport agents register on it by
flow id and receive the packets addressed to them.  A :class:`Router`
forwards by longest-match-free exact destination lookup (sufficient for
the paper's dumbbell and parking-lot topologies, where every host has a
unique address).
"""

from __future__ import annotations

from typing import Callable, Dict, Optional, Protocol

from .link import Link
from .packet import Packet


class PacketHandler(Protocol):
    """Anything that can accept a delivered packet."""

    def handle_packet(self, packet: Packet) -> None:  # pragma: no cover - protocol
        ...


class Node:
    """Base class for anything attached to links."""

    def __init__(self, name: str) -> None:
        self.name = name
        self.packets_received = 0

    def receive(self, packet: Packet, link: Link) -> None:
        """Handle a packet delivered by ``link``."""
        raise NotImplementedError


class Host(Node):
    """An end host: the source or sink of flows.

    Transport agents register per flow id.  Outbound traffic goes through
    the single uplink unless an explicit route is set for a destination.
    """

    def __init__(self, name: str) -> None:
        super().__init__(name)
        self._agents: Dict[int, PacketHandler] = {}
        self._uplink: Optional[Link] = None
        self._routes: Dict[str, Link] = {}
        self._default_handler: Optional[Callable[[Packet], None]] = None
        self.packets_discarded = 0

    def set_uplink(self, link: Link) -> None:
        """Set the default outbound link."""
        self._uplink = link

    def add_route(self, dst: str, link: Link) -> None:
        """Route traffic for ``dst`` via ``link`` (overrides the uplink)."""
        self._routes[dst] = link

    def register_agent(self, flow_id: int, agent: PacketHandler) -> None:
        """Deliver packets of ``flow_id`` to ``agent``."""
        if flow_id in self._agents:
            raise ValueError(f"flow {flow_id} already registered on {self.name}")
        self._agents[flow_id] = agent

    def unregister_agent(self, flow_id: int) -> None:
        """Stop delivering packets of ``flow_id``."""
        self._agents.pop(flow_id, None)

    def set_default_handler(self, handler: Callable[[Packet], None]) -> None:
        """Catch packets whose flow has no registered agent."""
        self._default_handler = handler

    def send(self, packet: Packet) -> None:
        """Transmit ``packet`` toward its destination."""
        link = self._routes.get(packet.dst, self._uplink)
        if link is None:
            raise RuntimeError(f"host {self.name} has no route to {packet.dst}")
        link.send(packet)

    def receive(self, packet: Packet, link: Link) -> None:
        self.packets_received += 1
        agent = self._agents.get(packet.flow_id)
        if agent is not None:
            agent.handle_packet(packet)
        elif self._default_handler is not None:
            self._default_handler(packet)
        else:
            # Packets for unknown flows with no default handler are
            # discarded, matching what a real host does for closed ports;
            # counted so conservation audits can account for them.
            self.packets_discarded += 1


class Router(Node):
    """A store-and-forward router with an exact-destination routing table."""

    def __init__(self, name: str) -> None:
        super().__init__(name)
        self._table: Dict[str, Link] = {}
        self._default: Optional[Link] = None
        self.packets_forwarded = 0
        self.packets_unroutable = 0

    def add_route(self, dst: str, link: Link) -> None:
        """Forward packets destined to ``dst`` via ``link``."""
        self._table[dst] = link

    def set_default_route(self, link: Link) -> None:
        """Forward packets with no explicit route via ``link``."""
        self._default = link

    def receive(self, packet: Packet, link: Link) -> None:
        self.packets_received += 1
        out = self._table.get(packet.dst, self._default)
        if out is None:
            self.packets_unroutable += 1
            return
        self.packets_forwarded += 1
        out.send(packet)
