"""RemyCC: the machine-learned congestion controller, with Phi extension.

A RemyCC sender keeps a :class:`~repro.remy.memory.MemoryTracker`, and on
every ACK consults a :class:`~repro.remy.whisker.WhiskerTable` for an
action that sets its congestion window and pacing interval.  When a
``util_provider`` is supplied, the memory gains the paper's extra
dimension ``u`` (shared bottleneck utilization) — this is Remy-Phi.
"""

from __future__ import annotations

from typing import Callable, Optional

from ..remy.memory import MemoryTracker
from ..remy.whisker import WhiskerTable
from ..simnet.engine import EventHandle, Simulator
from ..simnet.node import Host
from ..simnet.packet import FlowSpec, Packet, PacketKind
from .base import TcpSender


class RemySender(TcpSender):
    """Window-and-pacing sender driven by a whisker table.

    Unlike the hand-crafted flavours, RemyCC has no explicit loss-event
    multiplicative decrease: the learned table reacts through the memory
    features (a loss shows up as RTT inflation and stretched ACK
    interarrivals).  The base class's retransmission machinery is kept for
    reliability; only the window policy differs.
    """

    flavour = "remy"

    def __init__(
        self,
        sim: Simulator,
        host: Host,
        spec: FlowSpec,
        flow_size_bytes: int,
        on_complete: Optional[Callable[[TcpSender], None]] = None,
        *,
        table: WhiskerTable,
        util_provider: Optional[Callable[[], float]] = None,
    ) -> None:
        super().__init__(
            sim,
            host,
            spec,
            flow_size_bytes,
            on_complete,
            initial_ssthresh=1e9,  # Remy has no slow-start threshold.
        )
        self.table = table
        self.tracker = MemoryTracker(util_provider)
        self.intersend_s = 0.0
        self._next_send_time = 0.0
        self._pacing_handle: Optional[EventHandle] = None

    # ------------------------------------------------------------------
    # Paced sending
    # ------------------------------------------------------------------
    def _send_available(self) -> None:
        self._pump()

    def _pump(self) -> None:
        while self._can_send():
            now = self.sim.now
            if now + 1e-12 < self._next_send_time:
                self._arm_pacing_timer()
                return
            self._send_segment(self.snd_nxt, is_retransmit=False)
            self.snd_nxt = min(self.flow_size, self.snd_nxt + self.mss)
            self._next_send_time = now + self.intersend_s

    def _arm_pacing_timer(self) -> None:
        if self._pacing_handle is not None and not self._pacing_handle.cancelled:
            return
        delay = max(0.0, self._next_send_time - self.sim.now)
        self._pacing_handle = self.sim.schedule(delay, self._pacing_fired)

    def _pacing_fired(self) -> None:
        self._pacing_handle = None
        if not self.finished:
            self._pump()

    # ------------------------------------------------------------------
    # Learned policy
    # ------------------------------------------------------------------
    def _process_ack(self, ack: Packet) -> None:
        # An ACK without an echoed send time carries no timing signal for
        # the whisker memory; fall through to base processing unchanged.
        if ack.kind is PacketKind.ACK and not self.finished and ack.echo_timestamp is not None:
            memory = self.tracker.on_ack(
                ack_arrival_time=self.sim.now,
                echoed_send_time=ack.echo_timestamp,
                last_rtt=self.rtt.last_rtt,
                min_rtt=None if self.rtt.min_rtt == float("inf") else self.rtt.min_rtt,
            )
            action = self.table.act(memory)
            self.cwnd = action.apply(self.cwnd)
            self.intersend_s = action.intersend_s
        super()._process_ack(ack)

    def _grow_window(self, acked_segments: float) -> None:
        # Window evolution is entirely whisker-driven (set in _process_ack).
        pass

    def _on_loss_event(self) -> None:
        # No hand-crafted decrease; keep ssthresh out of the way.
        self.ssthresh = 1e9

    def _on_timeout_event(self) -> None:
        # A timeout means the network state is stale: reset the memory and
        # fall back to the initial window, as Remy resets after idle.
        self.tracker.reset()
        self.cwnd = self.window_init
        self.intersend_s = 0.0
        self._next_send_time = self.sim.now

    def abort(self) -> None:
        if self._pacing_handle is not None:
            self._pacing_handle.cancel()
            self._pacing_handle = None
        super().abort()
