"""Graceful degradation for Phi clients when the control plane fails.

TCPTuner-style evidence says acting on garbage tuning parameters is
worse than the defaults, so a sender that cannot reach (or cannot
trust) the context server must fail *safe*: fall back to exactly the
uncoordinated behaviour the status quo ships.  The
:class:`ResilientContextClient` wraps a
:class:`~repro.phi.channel.ControlChannel` or a
:class:`~repro.phi.failover.FailoverChannel`, reads each call's
:class:`~repro.phi.channel.RpcResult` status, and implements that
discipline:

- **FRESH**: the lookup succeeded; use the live context.
- **STALE**: the lookup failed but a cached context is younger than the
  staleness TTL; use the cache (still coordinated, slightly old).
- **FALLBACK**: no usable context; the caller must behave exactly like
  an unmodified sender (stock Cubic, or plain Remy).
- **DISTRUSTED**: lookups *succeed* but the outcome-driven
  :class:`~repro.phi.trust.TrustTracker` says the answers have been
  wrong; act like FALLBACK (stock defaults) while shadow-scoring the
  answers so sustained accuracy can restore trust.

A :class:`~repro.phi.guard.ContextGuard`, when attached, vets every
successful lookup before it is cached or acted on; a rejected snapshot
takes the same degradation path a failed RPC would.

:meth:`ResilientContextClient.sender_factory` puts the paper's protocol
(Section 2.2.2: look up at connection start, report at connection end)
on every Phi sender, under that discipline.

Every decision is tagged and counted so experiments can attribute
outcomes to context quality.  End-of-connection reports that fail are
queued (bounded) and flushed opportunistically once the channel works
again, so the server's shared state heals after a partition instead of
losing the partition's history.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from enum import Enum
from typing import Callable, Deque, Dict, Optional

from ..remy.whisker import WhiskerTable
from ..simnet.engine import Simulator
from ..simnet.node import Host
from ..simnet.packet import FlowSpec
from ..telemetry import session as _telemetry_session
from ..transport.base import ConnectionStats, TcpSender
from ..transport.cubic import CubicParams, CubicSender
from ..transport.remycc import RemySender
from ..workload.onoff import SenderFactory
from .channel import RpcStatus
from .context import CongestionContext
from .guard import ContextGuard
from .policy import PolicyTable
from .server import ConnectionReport
from .trust import TrustTracker


class ContextDecision(Enum):
    """How a connection's starting context was obtained."""

    FRESH = "fresh"            # live lookup succeeded
    STALE = "stale"            # lookup failed; cache within TTL used
    FALLBACK = "fallback"      # no usable context; uncoordinated defaults
    DISTRUSTED = "distrusted"  # lookup succeeded but trust has collapsed


@dataclass(frozen=True)
class ResolvedContext:
    """One lookup outcome: the context (if any) and its provenance.

    ``shadow`` carries the guard-accepted context of a DISTRUSTED lookup:
    the caller must not act on it, but the client still scores it against
    the connection's outcome so accuracy can earn trust back.
    """

    decision: ContextDecision
    context: Optional[CongestionContext]
    age_s: float = 0.0
    shadow: Optional[CongestionContext] = None

    @property
    def coordinated(self) -> bool:
        """Whether the caller may act on shared state at all."""
        return self.decision not in (
            ContextDecision.FALLBACK,
            ContextDecision.DISTRUSTED,
        )


class ResilientContextClient:
    """Failure-masking wrapper around a control channel.

    Parameters
    ----------
    source:
        Anything with ``call_lookup()`` / ``call_report(report)``
        returning an :class:`~repro.phi.channel.RpcResult`.  Every status
        but OK is a failure to mask; an exception is a programming bug
        (the channel lets only those through) and propagates.
    now:
        Clock callable (simulation time).
    staleness_ttl_s:
        Maximum age of a cached context before it stops being usable as
        a STALE answer and the client falls back to defaults.
    max_pending_reports:
        Bound on the recovery queue of unsent end-of-connection reports;
        beyond it the oldest queued report is dropped (and counted).
    guard:
        Optional :class:`~repro.phi.guard.ContextGuard`.  Every
        successful lookup is validated before being cached or served; a
        rejected snapshot degrades exactly like a failed RPC (STALE
        cache if young enough, else FALLBACK).
    trust:
        Optional :class:`~repro.phi.trust.TrustTracker`.  While it is
        distrusted, guard-accepted lookups resolve as DISTRUSTED — the
        context rides along as ``shadow`` for scoring, but the caller
        runs stock defaults.
    """

    def __init__(
        self,
        source,
        *,
        now: Callable[[], float],
        staleness_ttl_s: float = 10.0,
        max_pending_reports: int = 1024,
        guard: Optional[ContextGuard] = None,
        trust: Optional[TrustTracker] = None,
    ) -> None:
        if not staleness_ttl_s >= 0:  # NaN: no cache would ever be STALE
            raise ValueError(f"staleness_ttl_s must be >= 0: {staleness_ttl_s}")
        if max_pending_reports < 1:
            raise ValueError(
                f"max_pending_reports must be >= 1: {max_pending_reports}"
            )
        self.source = source
        self.now = now
        self.staleness_ttl_s = staleness_ttl_s
        self.max_pending_reports = max_pending_reports
        self.guard = guard
        self.trust = trust
        self._cached: Optional[CongestionContext] = None
        self._cached_at = 0.0
        self._pending: Deque[ConnectionReport] = deque()
        #: Decisions made, by value: a str key hashes in C, a member does not.
        self._decided: Dict[str, int] = {d.value: 0 for d in ContextDecision}
        self.reports_sent = 0
        self.reports_queued = 0
        self.reports_dropped = 0
        self.reports_flushed = 0
        #: The current decision mode's value (``None`` before the first).
        self._mode: Optional[str] = None
        self._mode_since = now()
        self.mode_time_s: Dict[str, float] = {d.value: 0.0 for d in ContextDecision}

    @property
    def decisions(self) -> Dict[ContextDecision, int]:
        """How many connections started under each decision."""
        return {d: self._decided[d.value] for d in ContextDecision}

    def _decide(self, decision: ContextDecision, now: float) -> None:
        """Count a decision and charge sim time to the mode it ends."""
        mode = decision._value_  # ``.value`` is a property: a Python frame
        self._decided[mode] += 1
        previous = self._mode
        tele = _telemetry_session()
        if previous is not None:
            elapsed = now - self._mode_since
            self.mode_time_s[previous] += elapsed
            if elapsed > 0 and tele.enabled:
                tele.registry.counter("phi.mode_time_s", mode=previous).inc(elapsed)
        self._mode = mode
        self._mode_since = now
        if tele.enabled:
            tele.registry.counter("phi.context_decisions", decision=mode).inc()
        if previous != mode:
            rec = tele.flightrec
            if rec.enabled:
                rec.phi("mode", now, "context", detail={"from": previous, "to": mode})

    def mode_times(self) -> Dict[str, float]:
        """Sim seconds spent in each decision mode, including the current one.

        A mode starts at the decision that selects it and ends at the next
        decision; the client is in no mode before its first lookup.
        """
        times = dict(self.mode_time_s)
        if self._mode is not None:
            times[self._mode] += self.now() - self._mode_since
        return times

    # ------------------------------------------------------------------
    # Lookup with degradation
    # ------------------------------------------------------------------
    def resolve(self) -> ResolvedContext:
        """Obtain a starting context, degrading gracefully on failure.

        Order of scrutiny: RPC status → guard rejection → trust gate.
        Only a lookup that survives all three is cached and acted on; a
        guard-rejected snapshot is treated like a failed RPC, and a
        distrusted one is shadow-carried but not obeyed.
        """
        result = self.source.call_lookup()
        if result.status is not RpcStatus.OK:
            return self._degraded()
        context = result.value
        if self.guard is not None and not self.guard.validate(context):
            return self._degraded()
        now = self.now()
        if self.trust is not None and self.trust.distrusted:
            # The channel works, so let queued history through even
            # though this sender will not act on the answer.
            if self._pending:
                self._flush_pending()
            self._decide(ContextDecision.DISTRUSTED, now)
            return ResolvedContext(
                ContextDecision.DISTRUSTED, None, shadow=context
            )
        self._cached = context
        self._cached_at = now
        self._decide(ContextDecision.FRESH, now)
        if self._pending:
            self._flush_pending()
        return ResolvedContext(ContextDecision.FRESH, context)

    def observe_outcome(self, resolved: ResolvedContext, stats: ConnectionStats) -> None:
        """Score a finished connection's prediction against its outcome.

        Call with the :class:`ResolvedContext` the connection started
        from and its final stats.  FRESH/STALE contexts are scored
        directly; DISTRUSTED lookups score their ``shadow`` so recovery
        is possible without acting on untrusted state.  FALLBACK carries
        no prediction and is a no-op.
        """
        if self.trust is None:
            return
        predicted = resolved.context if resolved.context is not None else resolved.shadow
        if predicted is None:
            return
        self.trust.record_outcome(predicted.level(), stats)

    def _degraded(self) -> ResolvedContext:
        now = self.now()
        if self._cached is not None:
            age = now - self._cached_at
            if age <= self.staleness_ttl_s:
                self._decide(ContextDecision.STALE, now)
                return ResolvedContext(ContextDecision.STALE, self._cached, age)
        self._decide(ContextDecision.FALLBACK, now)
        return ResolvedContext(ContextDecision.FALLBACK, None)

    # ------------------------------------------------------------------
    # Reports with recovery queue
    # ------------------------------------------------------------------
    def report(self, report: ConnectionReport) -> None:
        """Send a report, queueing it for later if the channel is down."""
        if self._pending:
            self._flush_pending()
            if self._pending:
                # Still partitioned: preserve order behind the queued backlog.
                self._enqueue(report)
                return
        if self.source.call_report(report).status is RpcStatus.OK:
            self.reports_sent += 1
        else:
            self._enqueue(report)

    def _enqueue(self, report: ConnectionReport) -> None:
        if len(self._pending) >= self.max_pending_reports:
            self._pending.popleft()
            self.reports_dropped += 1
        self._pending.append(report)
        self.reports_queued += 1

    def _flush_pending(self) -> None:
        while self._pending:
            if self.source.call_report(self._pending[0]).status is not RpcStatus.OK:
                return
            self._pending.popleft()
            self.reports_sent += 1
            self.reports_flushed += 1

    @property
    def pending_reports(self) -> int:
        """Reports waiting for the channel to recover."""
        return len(self._pending)

    def decision_counts(self) -> Dict[str, int]:
        """Plain-dict decision mix (keys are decision names)."""
        return dict(self._decided)

    # ------------------------------------------------------------------
    # The protocol on a sender
    # ------------------------------------------------------------------
    def sender_factory(
        self,
        policy: Optional[PolicyTable] = None,
        table: Optional[WhiskerTable] = None,
        *,
        live_utilization: Optional[Callable[[], float]] = None,
    ) -> SenderFactory:
        """The Phi sender factory: look up at start, report at end.

        A coordinated start (FRESH/STALE) runs Cubic with ``policy``'s
        parameters for the context or, given a ``table``, Remy with the
        context's ``u`` frozen (``live_utilization`` read on every ACK
        instead, for IDEAL).  FALLBACK and DISTRUSTED start stock Cubic or
        plain Remy, so a plane that cannot be used runs exactly the
        uncoordinated baseline.  Each finished connection feeds the trust
        tracker (when one is attached) before it reports.
        """
        defaults = CubicParams.default()
        trust = self.trust

        def factory(
            sim: Simulator,
            host: Host,
            spec: FlowSpec,
            flow_size_bytes: int,
            on_complete: Callable[[TcpSender], None],
        ) -> TcpSender:
            resolved = self.resolve()
            context = resolved.context
            # Flight recorder: the causal link between this flow and the
            # context mode it started under.
            rec = _telemetry_session().flightrec
            if rec.enabled:
                rec.phi(
                    "context", sim.now, "lookup",
                    detail={
                        "flow_id": spec.flow_id,
                        "decision": resolved.decision.value,
                    },
                )

            def report_and_complete(sender: TcpSender) -> None:
                if trust is not None:  # no call per flow on a plane without trust
                    self.observe_outcome(resolved, sender.stats)
                self.report(ConnectionReport.from_stats(sender.stats, sim.now))
                on_complete(sender)

            if table is None:
                params = defaults if context is None else policy.params_for(context)
                return CubicSender(
                    sim, host, spec, flow_size_bytes, report_and_complete, params=params
                )
            if context is None:
                util_provider = None
            elif live_utilization is not None:
                util_provider = live_utilization
            else:
                frozen = context.utilization
                util_provider = lambda: frozen  # noqa: E731 - tiny closure
            return RemySender(
                sim, host, spec, flow_size_bytes, report_and_complete,
                table=table, util_provider=util_provider,
            )

        return factory
