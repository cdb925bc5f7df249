"""TCP Vegas: the classic delay-based baseline.

The paper cites Vegas [Brakmo, O'Malley & Peterson 1994] among the
congestion-control lineage it builds on.  Vegas is included as a second
hand-crafted baseline: it estimates the backlog it keeps in the
bottleneck queue from the difference between expected and actual rates
and holds it between ``alpha`` and ``beta`` packets — the same standing-
queue signal Phi's context server aggregates across senders.
"""

from __future__ import annotations

from typing import Optional

from .base import TcpSender

#: Vegas holds between alpha and beta segments queued at the bottleneck.
ALPHA = 1.0
BETA = 3.0


class VegasSender(TcpSender):
    """Delay-based sender: adjusts the window by the estimated backlog."""

    flavour = "vegas"

    def _estimated_backlog(self) -> Optional[float]:
        """Diff = (expected - actual) * baseRTT, in segments (Vegas)."""
        if self.rtt.srtt is None or self.rtt.min_rtt == float("inf"):
            return None
        base = self.rtt.min_rtt
        current = self.rtt.srtt
        if base <= 0 or current <= 0:
            return None
        expected_rate = self.cwnd / base
        actual_rate = self.cwnd / current
        return (expected_rate - actual_rate) * base

    def _on_ack_congestion_avoidance(self, acked_segments: float) -> None:
        backlog = self._estimated_backlog()
        if backlog is None:
            self.cwnd += acked_segments / max(self.cwnd, 1.0)
            return
        per_ack = acked_segments / max(self.cwnd, 1.0)
        if backlog < ALPHA:
            self.cwnd += per_ack
        elif backlog > BETA:
            self.cwnd = max(2.0, self.cwnd - per_ack)
        # Between alpha and beta: hold steady.

    def _on_loss_event(self) -> None:
        # Vegas falls back to multiplicative decrease on an actual loss.
        self.ssthresh = max(2.0, self.cwnd * 0.75)
        self.cwnd = self.ssthresh

    def _on_timeout_event(self) -> None:
        self.ssthresh = max(2.0, self.flight_segments / 2.0)
        self.cwnd = 1.0

    def _grow_window(self, acked_segments: float) -> None:
        # Vegas also moderates slow start: leave it once a backlog shows.
        backlog = self._estimated_backlog()
        if self.cwnd < self.ssthresh and (backlog is None or backlog < BETA):
            self.cwnd = min(self.ssthresh, self.cwnd + acked_segments / 2.0)
        else:
            self._on_ack_congestion_avoidance(acked_segments)
