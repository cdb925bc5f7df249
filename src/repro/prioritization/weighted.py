"""Weighted TCP senders (MulTCP-style).

A flow with weight ``w`` behaves like ``w`` standard AIMD flows: it adds
``w`` segments per RTT in congestion avoidance and gives back a
``1/(2w)`` fraction on loss.  An ensemble whose weights sum to ``n``
therefore competes like ``n`` standard flows — the mechanism behind
Section 3.3's "more (or less) aggressive than others ... while still
ensuring that the ensemble of flows remains TCP-friendly".
"""

from __future__ import annotations

from typing import Callable, Optional

from ..simnet.bounds import check
from ..simnet.engine import Simulator
from ..simnet.node import Host
from ..simnet.packet import FlowSpec
from ..transport.base import TcpSender


class WeightedRenoSender(TcpSender):
    """AIMD sender scaled by a priority weight (MulTCP)."""

    flavour = "weighted-reno"

    def __init__(
        self,
        sim: Simulator,
        host: Host,
        spec: FlowSpec,
        flow_size_bytes: int,
        on_complete: Optional[Callable[[TcpSender], None]] = None,
        *,
        weight: float = 1.0,
    ) -> None:
        check("weight", weight, gt=0)
        super().__init__(sim, host, spec, flow_size_bytes, on_complete)
        self.weight = weight

    def _on_ack_congestion_avoidance(self, acked_segments: float) -> None:
        # w segments per RTT: each ACKed segment adds w/cwnd.
        self.cwnd += self.weight * acked_segments / max(self.cwnd, 1.0)

    def _on_loss_event(self) -> None:
        # Give back a 1/(2w) fraction so w virtual flows shed one flow's
        # worth of the standard 1/2 decrease.
        decrease = 1.0 / (2.0 * self.weight)
        self.ssthresh = max(2.0, self.cwnd * (1.0 - decrease))
        self.cwnd = self.ssthresh

    def _on_timeout_event(self) -> None:
        decrease = 1.0 / (2.0 * self.weight)
        self.ssthresh = max(2.0, self.flight_segments * (1.0 - decrease))
        self.cwnd = 1.0

