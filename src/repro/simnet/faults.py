"""Composable fault injection for links and control-plane targets.

Used by robustness tests, the diagnosis pipeline's end-to-end scenarios,
and the degraded-control-plane experiments.  Link faults are *stacked*:
every fault on a link installs a wrapper on a shared per-link delivery
chain, so overlapping faults compose and can be removed in any order —
each removal restores exactly the chain without that fault, and removing
the last fault restores the link's pristine ``_deliver`` hook.

A link looks ``_deliver`` up when a packet's serialization *starts* (that
is when it posts the delivery event, a bare calendar record bound to the
hook of that moment), so the first fault installed on a
link catches neither the packets propagating at that moment nor the one
being serialized.  Once a chain is installed it is evaluated against the
live fault list when a delivery fires, so later installs and removals
apply to every packet that started serializing under the chain.

Available faults:

- :class:`LinkOutage` — black-holes a link for a window (the
  network-level cause behind Figure 5's unreachability event).
- :class:`RandomLoss` — drops packets independently with probability
  ``p`` (a dirty fiber or lossy wireless segment).
- :class:`LinkFlap` — alternates a link between up and down, modelling a
  bouncing interface or a route withdrawing and re-announcing.
- :class:`DelaySpike` — adds extra one-way delay for a window (a
  reroute through a longer path, or bufferbloat upstream).
- :class:`ServerOutage` — takes one or more ``mark_down()``/``mark_up()``
  targets (e.g. :class:`repro.phi.channel.ControlChannel` instances)
  offline for a window; the control-plane analogue of
  :class:`LinkOutage`.  A whole replica group can be failed as one fault.
- :class:`Partition` — severs an arbitrary *set* of paths for a window:
  link paths are black-holed, control-plane targets are marked down, and
  replica-mesh edges are severed on any duck-typed mesh exposing
  ``sever(i, j)`` / ``heal(i, j)`` (in practice a
  :class:`repro.phi.replication.ReplicatedContextService`).  This is the
  chaos primitive behind the X7 partition sweep.

A :class:`FaultInjector` registry builds and tracks faults for a run so
scenarios can declare a whole fault schedule in one place.
"""

from __future__ import annotations

import itertools
from typing import Callable, List, Optional, Protocol, Sequence, Tuple, Union

import numpy as np

from ..telemetry import session as _telemetry_session
from .engine import Simulator
from .link import Link
from .packet import Packet


def _record_fault_event(
    kind: str,
    now: float,
    fault: object,
    *,
    packet: Optional[Packet] = None,
) -> None:
    """Flight-recorder funnel for fault lifecycle and absorption events.

    Emits the fault's window (``start_s``/``end_s`` when it has one) so
    a post-mortem can attribute a stall to the injected fault window
    even when the dump's ring no longer holds the schedule event.  Fault
    paths are rare, so the detail dict per event is fine.
    """
    rec = _telemetry_session().flightrec
    if not rec.enabled:
        return
    detail = {"fault": type(fault).__name__}
    start_s = getattr(fault, "start_s", None)
    end_s = getattr(fault, "end_s", None)
    if start_s is not None:
        detail["start_s"] = start_s
    if end_s is not None:
        detail["end_s"] = end_s
    link = getattr(fault, "link", None)
    component = link.name if link is not None else type(fault).__name__
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

    @property
    def installed(self) -> bool:
        """Whether this fault currently sits on the delivery chain."""
        return self._installed

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


class LinkOutage(LinkFault):
    """Black-holes everything a link would deliver during [start, end).

    Queued and in-flight packets during the window vanish exactly as they
    would on a dead segment; packets sent after recovery flow normally.
    """

    def __init__(self, sim: Simulator, link: Link, start_s: float, duration_s: float) -> None:
        if duration_s <= 0:
            raise ValueError(f"duration must be positive: {duration_s}")
        if start_s < sim.now:
            raise ValueError(f"outage start {start_s} is in the past")
        super().__init__(link)
        self.sim = sim
        self.start_s = start_s
        self.duration_s = duration_s
        self.packets_blackholed = 0
        self.active = False
        sim.schedule_at(start_s, self._begin)

    @property
    def end_s(self) -> float:
        """First instant the link works again."""
        return self.start_s + self.duration_s

    def _begin(self) -> None:
        self.active = True
        self._install()
        _record_fault_event("fault_begin", self.sim.now, self)
        self.sim.schedule(self.duration_s, self._end)

    def _end(self) -> None:
        self.active = False
        self._uninstall()
        _record_fault_event("fault_end", self.sim.now, self)

    def apply(self, packet: Packet, forward: Callable[[Packet], None]) -> None:
        self.packets_blackholed += 1
        _record_fault_event("fault_absorb", self.sim.now, self, packet=packet)


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
        if not 0 <= loss_probability < 1:
            raise ValueError(
                f"loss probability must be in [0, 1): {loss_probability}"
            )
        super().__init__(link)
        self.sim = sim
        self.loss_probability = loss_probability
        self.rng = rng
        self.packets_dropped = 0
        self.packets_passed = 0
        self._install()

    def apply(self, packet: Packet, forward: Callable[[Packet], None]) -> None:
        if self.rng.random() < self.loss_probability:
            self.packets_dropped += 1
            _record_fault_event(
                "fault_absorb", self.sim.now, self, packet=packet
            )
            return
        self.packets_passed += 1
        forward(packet)

    def remove(self) -> None:
        """Restore the link's normal delivery (other faults unaffected)."""
        self._uninstall()

    @property
    def observed_loss_rate(self) -> float:
        """Empirical drop fraction so far."""
        total = self.packets_dropped + self.packets_passed
        if total == 0:
            return 0.0
        return self.packets_dropped / total


class LinkFlap(LinkFault):
    """A link that bounces: ``cycles`` repetitions of down/up.

    Starting at ``start_s`` the link is dead for ``down_s``, then healthy
    for ``up_s``, repeated ``cycles`` times.  Models an interface
    renegotiating or a route flapping — the pathology that stresses
    retry/backoff logic harder than a single clean outage.
    """

    def __init__(
        self,
        sim: Simulator,
        link: Link,
        start_s: float,
        down_s: float,
        up_s: float,
        cycles: int = 1,
    ) -> None:
        if down_s <= 0 or up_s < 0:
            raise ValueError(f"invalid flap timing: down={down_s} up={up_s}")
        if cycles < 1:
            raise ValueError(f"cycles must be >= 1: {cycles}")
        if start_s < sim.now:
            raise ValueError(f"flap start {start_s} is in the past")
        super().__init__(link)
        self.sim = sim
        self.start_s = start_s
        self.down_s = down_s
        self.up_s = up_s
        self.cycles = cycles
        self.down = False
        self.transitions = 0
        self.packets_blackholed = 0
        self._remaining = cycles
        sim.schedule_at(start_s, self._go_down)

    @property
    def end_s(self) -> float:
        """When the last cycle completes and the link stays up."""
        return self.start_s + self.cycles * (self.down_s + self.up_s)

    def _go_down(self) -> None:
        self.down = True
        self.transitions += 1
        self._install()
        _record_fault_event("fault_begin", self.sim.now, self)
        self.sim.schedule(self.down_s, self._go_up)

    def _go_up(self) -> None:
        self.down = False
        self.transitions += 1
        self._remaining -= 1
        self._uninstall()
        _record_fault_event("fault_end", self.sim.now, self)
        if self._remaining > 0:
            self.sim.schedule(self.up_s, self._go_down)

    def apply(self, packet: Packet, forward: Callable[[Packet], None]) -> None:
        self.packets_blackholed += 1
        _record_fault_event("fault_absorb", self.sim.now, self, packet=packet)


class DelaySpike(LinkFault):
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
        if duration_s <= 0:
            raise ValueError(f"duration must be positive: {duration_s}")
        if extra_delay_s <= 0:
            raise ValueError(f"extra delay must be positive: {extra_delay_s}")
        if start_s < sim.now:
            raise ValueError(f"spike start {start_s} is in the past")
        super().__init__(link)
        self.sim = sim
        self.start_s = start_s
        self.duration_s = duration_s
        self.extra_delay_s = extra_delay_s
        self.packets_delayed = 0
        self.active = False
        sim.schedule_at(start_s, self._begin)

    @property
    def end_s(self) -> float:
        """First instant deliveries are prompt again."""
        return self.start_s + self.duration_s

    def _begin(self) -> None:
        self.active = True
        self._install()
        _record_fault_event("fault_begin", self.sim.now, self)
        self.sim.schedule(self.duration_s, self._end)

    def _end(self) -> None:
        self.active = False
        self._uninstall()
        _record_fault_event("fault_end", self.sim.now, self)

    def apply(self, packet: Packet, forward: Callable[[Packet], None]) -> None:
        self.packets_delayed += 1
        _record_fault_event("fault_delay", self.sim.now, self, packet=packet)
        self.sim.schedule(self.extra_delay_s, forward, packet)


class Outageable(Protocol):
    """Anything that can be taken down and brought back (duck-typed so
    :mod:`repro.simnet` never imports the control-plane layer)."""

    def mark_down(self) -> None:  # pragma: no cover - protocol
        ...

    def mark_up(self) -> None:  # pragma: no cover - protocol
        ...


class ServerOutage:
    """Takes control-plane targets offline during [start, end).

    ``target`` is anything exposing ``mark_down()`` / ``mark_up()`` —
    in practice a :class:`repro.phi.channel.ControlChannel` — or a
    sequence of such targets, so a whole replica group fails (and heals)
    as one fault.  Overlapping outages compose: the channel counts
    down-marks, so a target comes back only when every overlapping
    outage has ended.
    """

    def __init__(
        self,
        sim: Simulator,
        target: Union[Outageable, Sequence[Outageable]],
        start_s: float,
        duration_s: float,
    ) -> None:
        if duration_s <= 0:
            raise ValueError(f"duration must be positive: {duration_s}")
        if start_s < sim.now:
            raise ValueError(f"outage start {start_s} is in the past")
        targets: Tuple[Outageable, ...]
        if isinstance(target, (list, tuple)):
            targets = tuple(target)
        else:
            targets = (target,)
        if not targets:
            raise ValueError("ServerOutage needs at least one target")
        self.sim = sim
        self.targets = targets
        #: First target, kept for the original single-target API.
        self.target = targets[0]
        self.start_s = start_s
        self.duration_s = duration_s
        self.active = False
        sim.schedule_at(start_s, self._begin)

    @property
    def end_s(self) -> float:
        """First instant this outage no longer holds the targets down."""
        return self.start_s + self.duration_s

    def _begin(self) -> None:
        self.active = True
        for target in self.targets:
            target.mark_down()
        _record_fault_event("fault_begin", self.sim.now, self)
        self.sim.schedule(self.duration_s, self._end)

    def _end(self) -> None:
        self.active = False
        for target in self.targets:
            target.mark_up()
        _record_fault_event("fault_end", self.sim.now, self)


class ReplicaMesh(Protocol):
    """Anything whose inter-replica edges can be severed and healed
    (duck-typed so :mod:`repro.simnet` never imports the control-plane
    layer; in practice a
    :class:`repro.phi.replication.ReplicatedContextService`)."""

    def sever(self, i: int, j: int) -> None:  # pragma: no cover - protocol
        ...

    def heal(self, i: int, j: int) -> None:  # pragma: no cover - protocol
        ...


class _PartitionLeg(LinkFault):
    """One link black-holed by a :class:`Partition` while it is active.

    Carries the owning partition's window so absorption events dumped
    from the flight recorder attribute to the partition's [start, end).
    """

    def __init__(
        self,
        link: Link,
        start_s: Optional[float] = None,
        end_s: Optional[float] = None,
    ) -> None:
        super().__init__(link)
        self.packets_blackholed = 0
        self.start_s = start_s
        self.end_s = end_s

    def apply(self, packet: Packet, forward: Callable[[Packet], None]) -> None:
        self.packets_blackholed += 1
        _record_fault_event(
            "fault_absorb", self.link.sim.now, self, packet=packet
        )


class Partition:
    """Severs a set of paths during [start, end), healing them together.

    A network partition is rarely one dead link: it cuts a *set* of
    paths at once — data-plane links, sender↔replica control channels,
    and replica↔replica gossip edges — and heals them together.  This
    fault models that as one schedulable unit:

    - every link in ``links`` is black-holed (stacking on the link's
      delivery chain, so it composes with :class:`LinkFlap`,
      :class:`DelaySpike`, ... exactly like :class:`LinkOutage`);
    - every control-plane target in ``targets`` is ``mark_down()``-ed
      (nesting with :class:`ServerOutage` via the down-mark counter);
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
        if duration_s <= 0:
            raise ValueError(f"duration must be positive: {duration_s}")
        if start_s < sim.now:
            raise ValueError(f"partition start {start_s} is in the past")
        if edges and mesh is None:
            raise ValueError("severing mesh edges requires a mesh")
        if not (links or targets or edges):
            raise ValueError("a partition must sever at least one path")
        self.sim = sim
        self.start_s = start_s
        self.duration_s = duration_s
        self.targets = tuple(targets)
        self.mesh = mesh
        self.edges = tuple(tuple(edge) for edge in edges)
        end_s = start_s + duration_s
        self._legs = [_PartitionLeg(link, start_s, end_s) for link in links]
        self.active = False
        self.heals = 0
        sim.schedule_at(start_s, self._begin)

    @property
    def end_s(self) -> float:
        """First instant every severed path works again."""
        return self.start_s + self.duration_s

    @property
    def packets_blackholed(self) -> int:
        """Data-plane packets lost into the severed links so far."""
        return sum(leg.packets_blackholed for leg in self._legs)

    def _begin(self) -> None:
        self.active = True
        for leg in self._legs:
            leg._install()
        for target in self.targets:
            target.mark_down()
        for i, j in self.edges:
            self.mesh.sever(i, j)
        _record_fault_event("fault_begin", self.sim.now, self)
        self.sim.schedule(self.duration_s, self._end)

    def _end(self) -> None:
        self.active = False
        self.heals += 1
        for leg in self._legs:
            leg._uninstall()
        for target in self.targets:
            target.mark_up()
        for i, j in self.edges:
            self.mesh.heal(i, j)
        _record_fault_event("fault_end", self.sim.now, self)


class FaultInjector:
    """A registry that builds and tracks a run's fault schedule.

    Scenario code declares every planned failure through one injector so
    the full chaos schedule is inspectable in one place (and so sweeps
    can report what they injected alongside what they measured).
    """

    def __init__(self, sim: Simulator) -> None:
        self.sim = sim
        self.faults: List[object] = []

    def add(self, fault):
        """Track an externally-constructed fault; returns it."""
        self.faults.append(fault)
        _record_fault_event("fault_scheduled", self.sim.now, fault)
        return fault

    def link_outage(self, link: Link, start_s: float, duration_s: float) -> LinkOutage:
        return self.add(LinkOutage(self.sim, link, start_s, duration_s))

    def random_loss(
        self, link: Link, loss_probability: float, rng: np.random.Generator
    ) -> RandomLoss:
        return self.add(RandomLoss(self.sim, link, loss_probability, rng))

    def link_flap(
        self, link: Link, start_s: float, down_s: float, up_s: float, cycles: int = 1
    ) -> LinkFlap:
        return self.add(LinkFlap(self.sim, link, start_s, down_s, up_s, cycles))

    def delay_spike(
        self, link: Link, start_s: float, duration_s: float, extra_delay_s: float
    ) -> DelaySpike:
        return self.add(DelaySpike(self.sim, link, start_s, duration_s, extra_delay_s))

    def server_outage(
        self,
        target: Union[Outageable, Sequence[Outageable]],
        start_s: float,
        duration_s: float,
    ) -> ServerOutage:
        return self.add(ServerOutage(self.sim, target, start_s, duration_s))

    def partition(
        self,
        start_s: float,
        duration_s: float,
        *,
        links: Sequence[Link] = (),
        targets: Sequence[Outageable] = (),
        mesh: Optional[ReplicaMesh] = None,
        edges: Sequence[Tuple[int, int]] = (),
    ) -> Partition:
        return self.add(
            Partition(
                self.sim,
                start_s,
                duration_s,
                links=links,
                targets=targets,
                mesh=mesh,
                edges=edges,
            )
        )

    def active_faults(self) -> List[object]:
        """Faults currently interposing (installed link faults or active windows)."""
        out = []
        for fault in self.faults:
            if isinstance(fault, LinkFault):
                if fault.installed:
                    out.append(fault)
            elif getattr(fault, "active", False):
                out.append(fault)
        return out
