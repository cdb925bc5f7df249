"""Control-plane fault windows.

The degraded- and partitioned-control-plane experiments take paths down
with :class:`Outage`: ``mark_down()``/``mark_up()`` targets (e.g.
:class:`repro.phi.channel.ControlChannel` instances) are held down and
replica-mesh edges are severed for one window, then healed together.  A
cut replica subset is the X7 partition sweep; a flap is consecutive
outages.  The data plane has no fault injector: the paper's evaluation
loses packets only at its DropTail bottlenecks.
"""

from __future__ import annotations

from typing import Optional, Protocol, Sequence, Tuple

from ..telemetry import session as _telemetry_session
from .bounds import check
from .engine import Simulator


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


class Outage:
    """Takes a set of control-plane paths down during [start, end).

    A failure is rarely one dead thing: a partition cuts a *set* of
    paths at once — sender↔replica control channels and replica↔replica
    gossip edges — and heals them together.  This fault models that as
    one schedulable unit:

    - every target in ``targets`` is ``mark_down()``-ed; overlapping
      outages nest through the target's down-mark counter, so a target
      comes back only when every outage holding it has ended;
    - every ``(i, j)`` pair in ``edges`` is severed on ``mesh`` so
      replicas stop anti-entropy merging across the cut.

    A window that starts now begins at construction; a later one begins
    on its own calendar event.  Either way it schedules its end when it
    begins.  Begin and end are recorded once per cut component.
    """

    def __init__(
        self,
        sim: Simulator,
        start_s: float,
        duration_s: float,
        *,
        targets: Sequence[Outageable] = (),
        mesh: Optional[ReplicaMesh] = None,
        edges: Sequence[Tuple[int, int]] = (),
    ) -> None:
        if edges and mesh is None:
            raise ValueError("severing mesh edges requires a mesh")
        if not (targets or edges):
            raise ValueError("an outage must cut at least one path")
        check("start_s", start_s, ge=sim.now)
        check("duration_s", duration_s, gt=0)
        self.sim = sim
        self.start_s = start_s
        self.duration_s = duration_s
        self.targets = tuple(targets)
        self.mesh = mesh
        self.edges = tuple(tuple(edge) for edge in edges)
        severed = (mesh,) if self.edges else ()
        # Each cut component is named by its type, so replicas cut
        # together read as one component.
        self._components = tuple(dict.fromkeys(
            type(other).__name__ for other in self.targets + severed
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
        for target in self.targets:
            target.mark_down()
        for i, j in self.edges:
            self.mesh.sever(i, j)
        self._record_edge("fault_begin")
        self.sim.schedule(self.duration_s, self._end)

    def _end(self) -> None:
        for target in self.targets:
            target.mark_up()
        for i, j in self.edges:
            self.mesh.heal(i, j)
        self._record_edge("fault_end")

    def _record_edge(self, kind: str) -> None:
        """Flight-recorder funnel for the window's begin and end edges.

        Each edge carries the window (``start_s``/``end_s``) so a
        post-mortem can attribute a stall to it even when the dump's
        ring no longer holds the begin edge.  Fault paths are rare, so
        the detail dict per event is fine.
        """
        rec = _telemetry_session().flightrec
        if not rec.enabled:
            return
        for component in self._components:
            detail = {
                "fault": type(self).__name__,
                "start_s": self.start_s,
                "end_s": self.end_s,
            }
            rec.fault(kind, self.sim.now, component, detail=detail)
