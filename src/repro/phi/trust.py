"""Outcome-driven trust in the context server.

Guardrails (:mod:`repro.phi.guard`) catch contexts that are *implausible*
— but a competent liar serves plausible ones.  A frozen replica, a
replayed snapshot, or an adversarial deflation all pass every static
check; the only evidence against them is that connections keep turning
out worse (or differently) than the context predicted.  This module
closes that loop: every finished connection compares the congestion
level the context *predicted* against the level the connection actually
*observed* (its own loss rate and RTT inflation), and an EWMA of that
agreement is the client's trust score.

When trust collapses, the
:class:`~repro.phi.fallback.ResilientContextClient` enters the
``DISTRUSTED`` decision mode: lookups still succeed, but senders run
stock defaults — the same bounded-loss discipline on-line congestion
control theory demands under adversarial inputs (never do worse than
the uncoordinated baseline by more than a constant).  Recovery is
hysteresis-gated: while distrusted the client keeps *shadow-scoring*
predictions without acting on them, and only a sustained run of accurate
predictions restores trust, so a flapping server cannot oscillate the
population between tuned and default behaviour.
"""

from __future__ import annotations

from ..telemetry import session as _telemetry_session
from ..transport.base import ConnectionStats
from .context import QUEUE_DELAY_THRESHOLDS, CongestionLevel, _bucket

#: Loss-rate thresholds between LOW/MODERATE/HIGH/SEVERE observed
#: congestion.  Loss is the ground truth a sender cannot be lied to
#: about: it paid for every retransmit itself.
LOSS_RATE_THRESHOLDS = (0.005, 0.02, 0.08)


def observed_level(queue_delay_s: float, loss_rate: float) -> CongestionLevel:
    """The congestion level a connection actually experienced.

    Worst-of per-signal buckets, mirroring
    :meth:`~repro.phi.context.CongestionContext.level`: RTT inflation
    reuses the context's queue-delay thresholds, loss gets its own.
    """
    by_queue = _bucket(max(0.0, queue_delay_s), QUEUE_DELAY_THRESHOLDS)
    by_loss = _bucket(max(0.0, loss_rate), LOSS_RATE_THRESHOLDS)
    return max(by_queue, by_loss, key=lambda lvl: lvl.rank)


def observed_level_from_stats(stats: ConnectionStats) -> CongestionLevel:
    """Observed level straight from a connection's final statistics."""
    return observed_level(stats.mean_queueing_delay, stats.loss_indicator)


#: Weight of the newest prediction-vs-outcome comparison.
TRUST_ALPHA = 0.15
#: Score contribution of an exact level match and an off-by-one match.
#: Off-by-one is cheap to forgive: the practical server's estimates are
#: noisy even when honest.  Two or more levels of error contribute zero.
EXACT_CREDIT = 1.0
ADJACENT_CREDIT = 0.6
#: Entering threshold: trust at or below this (after warm-up) flips the
#: tracker to distrusted.
DISTRUST_BELOW = 0.4
#: Leaving threshold: trust must climb back above this to restore.  The
#: gap between the two thresholds is the hysteresis band.
RESTORE_ABOVE = 0.7
#: Warm-up: no distrust verdict before this many outcomes, so a single
#: unlucky connection cannot de-coordinate the population.
MIN_SAMPLES = 8


class TrustTracker:
    """EWMA agreement score with hysteresis-gated distrust.

    Starts fully trusting (score 1.0): coordination is presumed useful
    until outcomes say otherwise.  :meth:`record` folds one finished
    connection in; :attr:`distrusted` is the gate the resilient client
    consults before acting on a context.
    """

    def __init__(self) -> None:
        self.score = 1.0
        self.samples = 0
        self.distrust_entries = 0
        self._distrusted = False

    @property
    def distrusted(self) -> bool:
        """Whether the client should refuse to act on contexts."""
        return self._distrusted

    def record(
        self, predicted: CongestionLevel, observed: CongestionLevel
    ) -> float:
        """Fold one prediction-vs-outcome comparison in; returns the score."""
        error = abs(predicted.rank - observed.rank)
        if error == 0:
            credit = EXACT_CREDIT
        elif error == 1:
            credit = ADJACENT_CREDIT
        else:
            credit = 0.0
        self.score = (1.0 - TRUST_ALPHA) * self.score + TRUST_ALPHA * credit
        self.samples += 1

        if self._distrusted:
            if self.score > RESTORE_ABOVE:
                self._distrusted = False
                self._transition("trusted")
        elif self.samples >= MIN_SAMPLES and self.score <= DISTRUST_BELOW:
            self._distrusted = True
            self.distrust_entries += 1
            self._transition("distrusted")

        tele = _telemetry_session()
        if tele.enabled:
            tele.registry.gauge("phi.trust_score").set(self.score)
        return self.score

    def record_outcome(
        self, predicted: CongestionLevel, stats: ConnectionStats
    ) -> float:
        """Convenience: score a prediction against final connection stats."""
        return self.record(predicted, observed_level_from_stats(stats))

    def _transition(self, to_state: str) -> None:
        tele = _telemetry_session()
        if tele.enabled:
            tele.registry.counter("phi.trust_transitions", to_state=to_state).inc()
