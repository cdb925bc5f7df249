"""The client <-> context-server control channel, with failures.

The paper's deployable design (Section 2.2.2) routes every connection
start through a lookup RPC and every connection end through a report RPC.
This module makes each a fallible call:

- **server outage windows**, driven by an
  :class:`repro.simnet.faults.Outage` via ``mark_down``/``mark_up``;
- one **attempt** per call: RPC time is not simulated, so a call runs
  at the current simulation instant, where a retry would meet the same
  down-mark and fail the same way;
- the **corruption layer**, the channel's payload fault axis.

The channel keeps no view of the server's health: the
:class:`~repro.phi.failover.FailoverChannel` every plane puts on top, at
one replica as at five, benches a replica that failed a call.  The
returned :class:`RpcResult`'s status is the one way a call reports
failure, to the failover channel and the resilient client above alike.
A backend that raises is a bug, and the exception propagates.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Any, Callable, NamedTuple, Optional

from ..simnet.engine import Simulator
from ..telemetry import session as _telemetry_session
from .server import ConnectionReport


class RpcStatus(Enum):
    """Outcome of one control-plane call."""

    OK = "ok"
    SERVER_DOWN = "server_down"      # the server was down when called
    ALL_SUSPENDED = "all_suspended"  # refused without an attempt: every replica benched


class RpcResult(NamedTuple):
    """How one call ended, and its answer (a tuple: one frame to build)."""

    status: RpcStatus
    value: Any = None


@dataclass(frozen=True)
class ChannelConfig:
    """The control channel has no setting of its own: the failover
    channel's suspension is the one per-replica health record, so there
    is nothing here to tune.  This empty config, and ``ControlChannel``'s
    ``config=``, are kept only because ``perf/probes.py`` builds channels
    with them; they go with those lines."""


class ControlChannel:
    """Failure-aware RPC front for any ``ContextSource`` backend.

    :meth:`call_lookup` / :meth:`call_report` return an
    :class:`RpcResult` and raise only on a programming bug.

    Availability is a down-mark *counter* so overlapping
    :class:`~repro.simnet.faults.Outage` windows nest correctly.
    ``config`` is accepted and read by nothing (:class:`ChannelConfig`).
    """

    def __init__(
        self,
        sim: Simulator,
        backend,
        *,
        config: Optional[ChannelConfig] = None,
        corruption=None,
    ) -> None:
        self.sim = sim
        self.backend = backend
        #: Optional :class:`~repro.phi.corruption.CorruptionLayer`: the
        #: channel's *semantic* fault axis, alongside the outage one.
        #: Applied to payloads of calls that succeed at the RPC level — a
        #: lookup answer corrupted in flight, a report poisoned by its
        #: sender — so transport health and payload truth fail
        #: independently, as they do in practice.
        self.corruption = corruption
        self._down_marks = 0

    # ------------------------------------------------------------------
    # Availability (driven by Outage faults)
    # ------------------------------------------------------------------
    def mark_down(self) -> None:
        """One more reason the server is unreachable (outage begin)."""
        self._down_marks += 1

    def mark_up(self) -> None:
        """One outage ended; the server recovers when all have."""
        if self._down_marks > 0:
            self._down_marks -= 1

    # ------------------------------------------------------------------
    # RPC surface
    # ------------------------------------------------------------------
    def call_lookup(self) -> RpcResult:
        """Connection-start lookup as a fallible RPC."""
        if self.corruption is None:
            return self._call(self.backend.lookup, "lookup")
        return self._call(
            lambda: self.corruption.corrupt_context(self.backend.lookup()), "lookup"
        )

    def call_report(self, report: ConnectionReport) -> RpcResult:
        """Connection-end report as a fallible RPC."""
        if self.corruption is not None:
            report = self.corruption.corrupt_report(report)
        return self._call(self.backend.report, "report", report)

    def _call(self, fn: Callable[..., Any], op: str, *args: Any) -> RpcResult:
        """``fn(*args)`` behind the outage marks, in one attempt; the
        outcome is accounted (telemetry, recorder) on the way out."""
        value = None
        if self._down_marks:
            status = RpcStatus.SERVER_DOWN
        else:
            value = fn(*args)
            status = RpcStatus.OK
        tele = _telemetry_session()
        if tele.enabled:
            tele.registry.counter("phi.rpc_calls", op=op, status=status.value).inc()
        rec = tele.flightrec
        if rec.enabled:
            rec.phi("rpc", self.sim.now, op, detail={"status": status.value})
        return RpcResult(status, value)
