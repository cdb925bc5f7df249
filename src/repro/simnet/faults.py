"""Composable fault injection for links and control-plane targets.

The degraded- and partitioned-control-plane experiments use
:class:`Outage` on control-plane targets and replica-mesh edges; no
experiment, bench or CLI path builds a link fault, which only tests
do until ROADMAP items 10(B) and 13(ii) give them a caller.  Link
faults are *stacked*: every fault on a link installs a wrapper on a
shared per-link delivery chain, so overlapping faults compose and can be
removed in any order — each removal restores exactly the chain without
that fault, and removing the last fault restores the link's pristine
``_deliver`` hook.

A link looks ``_deliver`` up when a packet's serialization *starts* (that
is when it posts the delivery event, a bare calendar record bound to the
hook of that moment), so the first fault installed on a
link catches neither the packets propagating at that moment nor the one
being serialized.  Once a chain is installed it is evaluated against the
live fault list when a delivery fires, so later installs and removals
apply to every packet that started serializing under the chain.

Available faults:

- :class:`Outage` — takes a set of paths down for one window and heals
  them together: links are black-holed, ``mark_down()``/``mark_up()``
  targets (e.g. :class:`repro.phi.channel.ControlChannel` instances)
  are held down, and replica-mesh edges are severed.  A cut replica
  subset is the X7 partition sweep; a flap is consecutive outages.
- :class:`DelaySpike` — adds extra one-way delay for a window (a
  reroute through a longer path, or bufferbloat upstream).
- :class:`RandomLoss` — drops packets independently with probability
  ``p`` (a dirty fiber or lossy wireless segment); it has no window.

:class:`Outage` and :class:`DelaySpike` share one window base, the only
place a fault window is validated, begun and ended.
"""

from __future__ import annotations

import itertools
from typing import Callable, List, Optional, Protocol, Sequence, Tuple

import numpy as np

from ..telemetry import session as _telemetry_session
from .bounds import check
from .engine import Simulator
from .link import Link
from .packet import Packet


def _record_fault_event(
    kind: str,
    now: float,
    fault: object,
    component: str,
    *,
    packet: Optional[Packet] = None,
) -> None:
    """Flight-recorder funnel for fault lifecycle and absorption events.

    ``component`` names what the fault cuts: a link by its name,
    anything else by its type.  Emits the fault's window
    (``start_s``/``end_s`` when it has one) so a post-mortem can
    attribute a stall to the injected fault window even when the dump's
    ring no longer holds the begin edge.  Fault paths are rare, so the
    detail dict per event is fine.
    """
    rec = _telemetry_session().flightrec
    if not rec.enabled:
        return
    detail = {"fault": type(fault).__name__}
    if isinstance(fault, _Window):
        detail["start_s"] = fault.start_s
        detail["end_s"] = fault.end_s
    if packet is None:
        rec.fault(kind, now, component, detail=detail)
    else:
        rec.fault(
            kind, now, component, packet.flow_id, packet.packet_id,
            detail=detail,
        )


class _DeliveryChain:
    """The shared stack of fault wrappers installed on one link.

    The chain replaces ``link._deliver`` exactly once, no matter how many
    faults are active; each fault occupies one slot, in installation
    order (earliest installed sees packets first).  Removing a fault
    splices it out of the chain wherever it sits, so teardown order does
    not matter; when the last fault leaves, the link's original hook is
    restored verbatim.
    """

    def __init__(self, link: Link) -> None:
        self.link = link
        # If _deliver is the plain class method (the usual case), full
        # teardown deletes the instance attribute so the link ends up
        # byte-identical to its pristine state; if something else already
        # interposed an instance-level hook, that hook is what we restore.
        self._base_is_instance_attr = "_deliver" in link.__dict__
        self._base: Callable[[Packet], None] = link._deliver
        self._faults: List["LinkFault"] = []
        self._install_counter = itertools.count()
        link._deliver = self._dispatch

    @classmethod
    def acquire(cls, link: Link) -> "_DeliveryChain":
        """The link's chain, installing one if none is active."""
        chain = getattr(link, "_fault_chain", None)
        if chain is None:
            chain = cls(link)
            link._fault_chain = chain
        return chain

    def push(self, fault: "LinkFault") -> None:
        fault._chain_seq = next(self._install_counter)
        self._faults.append(fault)

    def remove(self, fault: "LinkFault") -> None:
        self._faults.remove(fault)
        if not self._faults:
            if self._base_is_instance_attr:
                self.link._deliver = self._base
            else:
                del self.link.__dict__["_deliver"]
            del self.link._fault_chain

    def _dispatch(self, packet: Packet) -> None:
        self.forward_after(None, packet)

    def forward_after(self, fault: Optional["LinkFault"], packet: Packet) -> None:
        """Run ``packet`` through the chain below ``fault``.

        Evaluated against the *live* chain so a packet parked by one
        fault (e.g. a delay spike) still meets faults that are active
        when it resumes.  Position is tracked by install order (which
        survives removal), so the packet continues below where its fault
        sat even if that fault has since been torn down.
        """
        seq = -1 if fault is None else fault._chain_seq
        for candidate in self._faults:
            if candidate._chain_seq > seq:
                candidate.apply(
                    packet, lambda p, f=candidate: self.forward_after(f, p)
                )
                return
        self._base(packet)


class LinkFault:
    """Base class for faults that interpose on a link's delivery hook.

    Subclasses override :meth:`apply`; install/remove bookkeeping routes
    through the link's shared :class:`_DeliveryChain` so any mix of
    faults can overlap and tear down in any order.
    """

    def __init__(self, link: Link) -> None:
        self.link = link
        self._installed = False
        self._chain_seq = -1

    def _install(self) -> None:
        if self._installed:
            return
        _DeliveryChain.acquire(self.link).push(self)
        self._installed = True

    def _uninstall(self) -> None:
        if not self._installed:
            return
        chain = getattr(self.link, "_fault_chain", None)
        if chain is not None:
            chain.remove(self)
        self._installed = False

    def apply(self, packet: Packet, forward: Callable[[Packet], None]) -> None:
        """Process one delivery; call ``forward`` to pass it on."""
        forward(packet)  # pragma: no cover - overridden by subclasses


class RandomLoss(LinkFault):
    """Drops each delivered packet independently with probability ``p``.

    Models loss that is not congestion (a dirty fiber, a lossy wireless
    segment); useful for testing loss-rate estimation and the informed
    adaptation policies.
    """

    def __init__(
        self,
        sim: Simulator,
        link: Link,
        loss_probability: float,
        rng: np.random.Generator,
    ) -> None:
        check("loss_probability", loss_probability, ge=0, lt=1)
        super().__init__(link)
        self.sim = sim
        self.loss_probability = loss_probability
        self.rng = rng
        self.packets_dropped = 0
        self._install()

    def apply(self, packet: Packet, forward: Callable[[Packet], None]) -> None:
        if self.rng.random() < self.loss_probability:
            self.packets_dropped += 1
            _record_fault_event(
                "fault_absorb", self.sim.now, self, self.link.name, packet=packet
            )
            return
        forward(packet)

    def remove(self) -> None:
        """Restore the link's normal delivery (other faults unaffected)."""
        self._uninstall()


class Outageable(Protocol):
    """Anything that can be taken down and brought back (duck-typed so
    :mod:`repro.simnet` never imports the control-plane layer)."""

    def mark_down(self) -> None:  # pragma: no cover - protocol
        ...

    def mark_up(self) -> None:  # pragma: no cover - protocol
        ...


class ReplicaMesh(Protocol):
    """Anything whose inter-replica edges can be severed and healed
    (duck-typed so :mod:`repro.simnet` never imports the control-plane
    layer; in practice a
    :class:`repro.phi.replication.ReplicatedContextService`)."""

    def sever(self, i: int, j: int) -> None:  # pragma: no cover - protocol
        ...

    def heal(self, i: int, j: int) -> None:  # pragma: no cover - protocol
        ...


class _Leg(LinkFault):
    """One link a fault window holds while it is active.

    Counts the deliveries it intercepts and hands each to its window,
    which decides the packet's fate.
    """

    def __init__(self, window: "_Window", link: Link) -> None:
        super().__init__(link)
        self.window = window
        self.packets = 0

    def apply(self, packet: Packet, forward: Callable[[Packet], None]) -> None:
        self.packets += 1
        self.window._intercept(self.link, packet, forward)


class _Window:
    """A fault that holds during [start, end) and then heals.

    A window that starts now begins at construction; a later one begins
    on its own calendar event.  Either way it schedules its end when it
    begins.  While active it holds a :class:`_Leg` on each of its links'
    delivery chains, plus whatever :meth:`_cut` takes down.  Begin and
    end are recorded once per cut component.  Subclasses set their own
    state before calling ``__init__``, which may begin the window.
    """

    def __init__(
        self,
        sim: Simulator,
        start_s: float,
        duration_s: float,
        links: Sequence[Link],
        others: Sequence[object] = (),
    ) -> None:
        check("start_s", start_s, ge=sim.now)
        check("duration_s", duration_s, gt=0)
        self.sim = sim
        self.start_s = start_s
        self.duration_s = duration_s
        self._legs = tuple(_Leg(self, link) for link in links)
        # A link is named as the recorder names it; anything else by its
        # type, so replicas cut together read as one component.
        self._components = tuple(dict.fromkeys(
            [link.name for link in links] + [type(other).__name__ for other in others]
        ))
        if start_s == sim.now:
            self._begin()
        else:
            sim.schedule_at(start_s, self._begin)

    @property
    def end_s(self) -> float:
        """First instant everything the window cut works again."""
        return self.start_s + self.duration_s

    def _begin(self) -> None:
        for leg in self._legs:
            leg._install()
        self._cut()
        self._record_edge("fault_begin")
        self.sim.schedule(self.duration_s, self._end)

    def _end(self) -> None:
        for leg in self._legs:
            leg._uninstall()
        self._heal()
        self._record_edge("fault_end")

    def _record_edge(self, kind: str) -> None:
        for component in self._components:
            _record_fault_event(kind, self.sim.now, self, component)

    def _cut(self) -> None:
        """Take down what the window holds besides its links."""

    def _heal(self) -> None:
        """Bring back what :meth:`_cut` took down."""

    def _intercept(
        self, link: Link, packet: Packet, forward: Callable[[Packet], None]
    ) -> None:
        """One delivery on ``link`` while the window is active."""
        raise NotImplementedError  # pragma: no cover - overridden


class Outage(_Window):
    """Takes a set of paths down during [start, end), healing them together.

    A failure is rarely one dead thing: a partition cuts a *set* of
    paths at once — data-plane links, sender↔replica control channels,
    and replica↔replica gossip edges — and heals them together.  This
    fault models that as one schedulable unit:

    - every link in ``links`` is black-holed: queued and in-flight
      packets vanish exactly as they would on a dead segment, and the
      outage stacks on the link's delivery chain, so it composes with
      :class:`DelaySpike`, :class:`RandomLoss` and other outages;
    - every control-plane target in ``targets`` is ``mark_down()``-ed;
      overlapping outages nest through the target's down-mark counter,
      so a target comes back only when every outage holding it has ended;
    - every ``(i, j)`` pair in ``edges`` is severed on ``mesh`` so
      replicas stop anti-entropy merging across the cut.
    """

    def __init__(
        self,
        sim: Simulator,
        start_s: float,
        duration_s: float,
        *,
        links: Sequence[Link] = (),
        targets: Sequence[Outageable] = (),
        mesh: Optional[ReplicaMesh] = None,
        edges: Sequence[Tuple[int, int]] = (),
    ) -> None:
        if edges and mesh is None:
            raise ValueError("severing mesh edges requires a mesh")
        if not (links or targets or edges):
            raise ValueError("an outage must cut at least one path")
        self.targets = tuple(targets)
        self.mesh = mesh
        self.edges = tuple(tuple(edge) for edge in edges)
        severed = (mesh,) if self.edges else ()
        super().__init__(sim, start_s, duration_s, links, self.targets + severed)

    def packets_blackholed_on(self, link: Link) -> int:
        """Data-plane packets lost into ``link`` so far (0 if not cut)."""
        return sum(leg.packets for leg in self._legs if leg.link is link)

    def _cut(self) -> None:
        for target in self.targets:
            target.mark_down()
        for i, j in self.edges:
            self.mesh.sever(i, j)

    def _heal(self) -> None:
        for target in self.targets:
            target.mark_up()
        for i, j in self.edges:
            self.mesh.heal(i, j)

    def _intercept(
        self, link: Link, packet: Packet, forward: Callable[[Packet], None]
    ) -> None:
        _record_fault_event(
            "fault_absorb", self.sim.now, self, link.name, packet=packet
        )


class DelaySpike(_Window):
    """Adds ``extra_delay_s`` to every delivery during [start, end).

    Models a transient reroute through a longer path or upstream
    bufferbloat: packets still arrive, late.  Parked packets are released
    through whatever faults are active below this one when they resume,
    so a spike composing with an outage behaves like the real world — a
    late packet arriving into a dead link is still lost.
    """

    def __init__(
        self,
        sim: Simulator,
        link: Link,
        start_s: float,
        duration_s: float,
        extra_delay_s: float,
    ) -> None:
        check("extra_delay_s", extra_delay_s, gt=0)
        self.extra_delay_s = extra_delay_s
        super().__init__(sim, start_s, duration_s, (link,))

    @property
    def packets_delayed(self) -> int:
        """Deliveries held back by the spike so far."""
        return self._legs[0].packets

    def _intercept(
        self, link: Link, packet: Packet, forward: Callable[[Packet], None]
    ) -> None:
        _record_fault_event("fault_delay", self.sim.now, self, link.name, packet=packet)
        self.sim.schedule(self.extra_delay_s, forward, packet)
