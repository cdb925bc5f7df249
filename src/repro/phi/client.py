"""Phi client-side integration: sender factories that consult the server.

The paper's minimal protocol (Section 2.2.2): "each sender would look up
the context server once when a new connection starts (so that it can then
determine the optimal parameter settings) and would report back to the
context server once the connection ends (so that the shared state can be
updated based on the experience of that connection)."

:func:`phi_cubic_factory` and :func:`phi_remy_factory` wrap the plain
transport constructors with exactly that protocol; they return factories
compatible with :class:`repro.workload.SenderFactory` so any workload can
be made Phi-aware by swapping the factory.  A sender class is itself a
factory: unmodified senders are ``CubicSender``, ``partial(CubicSender,
params=p)`` or ``partial(RemySender, table=t)``.
"""

from __future__ import annotations

from enum import Enum
from typing import Callable, Optional, Protocol

from ..remy.whisker import WhiskerTable
from ..simnet.engine import Simulator
from ..simnet.node import Host
from ..simnet.packet import FlowSpec
from ..transport.base import TcpSender
from ..transport.cubic import CubicSender
from ..transport.remycc import RemySender
from .context import CongestionContext
from .policy import PolicyTable
from .server import ConnectionReport


class ContextSource(Protocol):
    """What a client needs from the server side: lookup + report."""

    def lookup(self) -> CongestionContext:  # pragma: no cover - protocol
        ...

    def report(self, report: ConnectionReport) -> None:  # pragma: no cover
        ...


class SharingMode(Enum):
    """How fresh the shared context each sender sees is."""

    #: Up-to-the-minute ground truth on every observation (upper bound).
    IDEAL = "ideal"
    #: Snapshot at connection start, report at connection end (deployable).
    PRACTICAL = "practical"
    #: No sharing at all (the status quo baseline).
    NONE = "none"


def phi_cubic_factory(
    context_source: ContextSource,
    policy: PolicyTable,
    *,
    now: Callable[[], float],
):
    """A SenderFactory producing Phi-coordinated Cubic senders.

    Each new connection looks up the context, keys the policy table with
    it, and reports its final statistics back when it completes.
    """

    def factory(
        sim: Simulator,
        host: Host,
        spec: FlowSpec,
        flow_size_bytes: int,
        on_complete: Callable[[TcpSender], None],
    ) -> TcpSender:
        context = context_source.lookup()
        params = policy.params_for(context)

        def report_and_complete(sender: TcpSender) -> None:
            context_source.report(
                ConnectionReport.from_stats(sender.stats, now())
            )
            on_complete(sender)

        return CubicSender(
            sim, host, spec, flow_size_bytes, report_and_complete, params=params
        )

    return factory


def phi_remy_factory(
    table: WhiskerTable,
    context_source: ContextSource,
    mode: SharingMode,
    *,
    now: Callable[[], float],
    live_utilization: Optional[Callable[[], float]] = None,
):
    """A SenderFactory producing Remy-Phi senders.

    - ``SharingMode.PRACTICAL``: ``u`` frozen at connection start from the
      context server (Remy-Phi-practical).
    - ``SharingMode.IDEAL``: ``u`` read live on every ACK via
      ``live_utilization`` (Remy-Phi-ideal); ``live_utilization`` is
      required in this mode.

    Plain Remy shares nothing: it is ``partial(RemySender, table=table)``.
    """
    if mode is SharingMode.NONE:
        raise ValueError("plain Remy is partial(RemySender, table=table)")
    if mode is SharingMode.IDEAL and live_utilization is None:
        raise ValueError("SharingMode.IDEAL requires a live_utilization callable")

    def factory(
        sim: Simulator,
        host: Host,
        spec: FlowSpec,
        flow_size_bytes: int,
        on_complete: Callable[[TcpSender], None],
    ) -> TcpSender:
        if mode is SharingMode.IDEAL:
            util_provider = live_utilization
        else:
            frozen = context_source.lookup().utilization
            util_provider = lambda: frozen  # noqa: E731 - tiny closure

        def report_and_complete(sender: TcpSender) -> None:
            context_source.report(ConnectionReport.from_stats(sender.stats, now()))
            on_complete(sender)

        return RemySender(
            sim,
            host,
            spec,
            flow_size_bytes,
            report_and_complete,
            table=table,
            util_provider=util_provider,
        )

    return factory

