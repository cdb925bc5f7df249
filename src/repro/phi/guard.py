"""Context guardrails: validate shared state before acting on it.

The congestion context is the one input every coordinated sender trusts
blindly — which makes a wrong context a *correlated* failure: one bad
snapshot mistunes the whole population at once.  The
:class:`ContextGuard` is the client-side checkpoint between a lookup and
the policy table.  It never repairs a snapshot; it only answers "may the
policy act on this?", and a rejection sends the caller down the same
degradation path an unreachable server would
(:class:`~repro.phi.fallback.ResilientContextClient` then serves the
stale cache or stock defaults).

Checks are layered cheapest-first:

1. **finite** — every field must be a finite number.  Deserialized
   payloads bypass ``CongestionContext.__post_init__`` (see
   :func:`~repro.phi.corruption.raw_context`), so NaN/inf must be caught
   here, not assumed away.
2. **range** — utilization in [0, 1], non-negative delays and counts,
   bounded by fixed ceilings.
3. **future timestamp** — a snapshot from the future is a clock lie.
4. **rate of change** — ``u`` and ``q`` may move only as fast as the
   fixed slew allows relative to the *last accepted* snapshot; a
   teleporting estimate is rejected even when each endpoint is in range.
5. **cross-field consistency** — ``fair_share ~= capacity / n`` for the
   capacity the deployment knows; a snapshot whose fields contradict each
   other is rejected whole.

Every rejection is counted by reason (``phi.guard_rejections{reason}``
when telemetry is live) so a poisoned run is attributable.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Dict, Optional

from ..simnet.bounds import check
from ..telemetry import session as _telemetry_session
from .context import CongestionContext

#: Rejection reasons, in check order.
REASON_NON_FINITE = "non_finite"
REASON_OUT_OF_RANGE = "out_of_range"
REASON_FUTURE_TIMESTAMP = "future_timestamp"
REASON_RATE_OF_CHANGE = "rate_of_change"
REASON_INCONSISTENT = "inconsistent_fair_share"

GUARD_REASONS = (
    REASON_NON_FINITE,
    REASON_OUT_OF_RANGE,
    REASON_FUTURE_TIMESTAMP,
    REASON_RATE_OF_CHANGE,
    REASON_INCONSISTENT,
)


#: Ceiling on a believable queueing delay.  Far above anything a sane
#: buffer produces (the Table-3 bottleneck's BDP is ~0.15 s); a snapshot
#: beyond it is an encoding error, not weather.
MAX_QUEUE_DELAY_S = 30.0
#: Ceiling on a believable sender count.
MAX_COMPETING_SENDERS = 1e6
#: How far ahead of the local clock a timestamp may claim to be.
MAX_FUTURE_SKEW_S = 1.0
#: Allowed ``|Δu|`` between consecutive *accepted* snapshots is
#: ``step + slew * Δt``: the step floor absorbs honest estimator jumps (a
#: big report landing in the window); the slew term lets any change
#: through given enough elapsed time.
UTILIZATION_STEP = 0.5
UTILIZATION_SLEW_PER_S = 0.5
#: The same envelope for ``q``.
QUEUE_DELAY_STEP_S = 0.2
QUEUE_DELAY_SLEW_PER_S = 0.5
#: Relative tolerance for ``fair_share ~= capacity / n``.  An honest
#: server's fair share is exact, so a quarter only spares rounding while a
#: bits-for-bytes unit error (8x) still fails.
FAIR_SHARE_REL_TOL = 0.25


@dataclass(frozen=True)
class GuardVerdict:
    """One validation outcome: accepted, or rejected with a reason."""

    accepted: bool
    reason: Optional[str] = None
    detail: str = ""

    def __bool__(self) -> bool:
        return self.accepted


_ACCEPT = GuardVerdict(True)


class ContextGuard:
    """Stateful validator between lookups and the policy table.

    Parameters
    ----------
    capacity_mbps:
        The bottleneck capacity the deployment knows (a provider knows
        its provisioned egress), for the fair-share consistency check.
    now:
        Optional clock callable enabling the future-timestamp check; the
        rate-of-change check uses the snapshots' own timestamps and needs
        no clock.
    """

    def __init__(
        self, capacity_mbps: float, *, now: Optional[Callable[[], float]] = None
    ) -> None:
        self.capacity_mbps = check("capacity_mbps", capacity_mbps, gt=0)
        self._now = now
        self._last_accepted: Optional[CongestionContext] = None
        self.rejections: Dict[str, int] = {}

    def validate(self, context: CongestionContext) -> GuardVerdict:
        """Check one snapshot; accepted snapshots become the rate baseline."""
        verdict = self._check(context)
        if verdict.accepted:
            self._last_accepted = context
        else:
            reason = verdict.reason or "unknown"
            self.rejections[reason] = self.rejections.get(reason, 0) + 1
            tele = _telemetry_session()
            if tele.enabled:
                tele.registry.counter("phi.guard_rejections", reason=reason).inc()
        return verdict

    # ------------------------------------------------------------------
    # Checks (cheapest first; first failure wins)
    # ------------------------------------------------------------------
    def _check(self, context: CongestionContext) -> GuardVerdict:
        fields = [
            ("utilization", context.utilization),
            ("queue_delay_s", context.queue_delay_s),
            ("competing_senders", context.competing_senders),
            ("timestamp", context.timestamp),
        ]
        if context.fair_share_mbps is not None:
            fields.append(("fair_share_mbps", context.fair_share_mbps))

        for name, value in fields:
            if not isinstance(value, (int, float)) or not math.isfinite(value):
                return GuardVerdict(
                    False, REASON_NON_FINITE, f"{name}={value!r}"
                )

        if not 0.0 <= context.utilization <= 1.0:
            return GuardVerdict(
                False, REASON_OUT_OF_RANGE, f"utilization={context.utilization!r}"
            )
        if not 0.0 <= context.queue_delay_s <= MAX_QUEUE_DELAY_S:
            return GuardVerdict(
                False, REASON_OUT_OF_RANGE, f"queue_delay_s={context.queue_delay_s!r}"
            )
        if not 0.0 <= context.competing_senders <= MAX_COMPETING_SENDERS:
            return GuardVerdict(
                False,
                REASON_OUT_OF_RANGE,
                f"competing_senders={context.competing_senders!r}",
            )
        if context.fair_share_mbps is not None and context.fair_share_mbps < 0.0:
            return GuardVerdict(
                False,
                REASON_OUT_OF_RANGE,
                f"fair_share_mbps={context.fair_share_mbps!r}",
            )

        if self._now is not None:
            skew = context.timestamp - self._now()
            if skew > MAX_FUTURE_SKEW_S:
                return GuardVerdict(
                    False, REASON_FUTURE_TIMESTAMP, f"skew={skew:.3f}s"
                )

        last = self._last_accepted
        if last is not None:
            dt = max(0.0, context.timestamp - last.timestamp)
            allowed_u = UTILIZATION_STEP + UTILIZATION_SLEW_PER_S * dt
            if abs(context.utilization - last.utilization) > allowed_u:
                return GuardVerdict(
                    False,
                    REASON_RATE_OF_CHANGE,
                    f"|du|={abs(context.utilization - last.utilization):.3f}"
                    f">{allowed_u:.3f}",
                )
            allowed_q = QUEUE_DELAY_STEP_S + QUEUE_DELAY_SLEW_PER_S * dt
            if abs(context.queue_delay_s - last.queue_delay_s) > allowed_q:
                return GuardVerdict(
                    False,
                    REASON_RATE_OF_CHANGE,
                    f"|dq|={abs(context.queue_delay_s - last.queue_delay_s):.3f}"
                    f">{allowed_q:.3f}",
                )

        if context.fair_share_mbps is not None:
            expected = self.capacity_mbps / max(1.0, context.competing_senders)
            tolerance = FAIR_SHARE_REL_TOL * expected
            if abs(context.fair_share_mbps - expected) > tolerance:
                return GuardVerdict(
                    False,
                    REASON_INCONSISTENT,
                    f"fair_share={context.fair_share_mbps:.3f}"
                    f" expected~{expected:.3f}",
                )

        return _ACCEPT

    def rejection_counts(self) -> Dict[str, int]:
        """Plain-dict rejection mix keyed by reason."""
        return dict(self.rejections)
