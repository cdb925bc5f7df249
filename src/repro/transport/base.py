"""Window-based TCP sender machinery.

This module implements everything the congestion-control flavours share:
segmentation, cumulative-ACK processing, duplicate-ACK fast retransmit,
NewReno-style fast recovery, RTO management with Karn's rule and
exponential backoff, and RTT estimation (RFC 6298).  Flavours (Cubic,
NewReno, RemyCC) plug in via the hook methods:

- :meth:`TcpSender._on_ack_congestion_avoidance`
- :meth:`TcpSender._on_loss_event`
- :meth:`TcpSender._on_timeout_event`

Windows are maintained in *segments* (floats), matching how the paper's
Table 1/2 parameters are expressed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, List, Optional

from .. import telemetry as _telemetry
from ..simnet.engine import EventHandle, Simulator
from ..simnet.node import Host
from ..simnet.packet import MSS_BYTES, FlowSpec, Packet, PacketKind
from .sink import ByteIntervalSet

#: Module constants so the per-packet kind checks are identity compares.
_DATA = PacketKind.DATA
_ACK = PacketKind.ACK

#: Lower bound on the retransmission timer, as in ns-2 (``minrto_``).
MIN_RTO_S = 0.2

#: Upper bound on the retransmission timer.
MAX_RTO_S = 60.0

#: Initial RTO before any RTT sample exists (RFC 6298 uses 1 s; we keep it).
INITIAL_RTO_S = 1.0

#: Classic duplicate-ACK threshold for fast retransmit.
DEFAULT_DUPACK_THRESHOLD = 3


@dataclass
class ConnectionStats:
    """Everything measured about one connection, reported to Phi at close.

    The paper's context-server protocol has each sender "report back to the
    context server once the connection ends"; this object is exactly that
    report.
    """

    flow_id: int
    start_time: float = 0.0
    end_time: float = 0.0
    bytes_goodput: int = 0
    bytes_sent: int = 0
    packets_sent: int = 0
    retransmits: int = 0
    timeouts: int = 0
    fast_retransmits: int = 0
    rtt_samples: List[float] = field(default_factory=list)
    min_rtt: float = math.inf
    completed: bool = False

    @property
    def duration(self) -> float:
        """Wall-clock connection lifetime ("on" period duration)."""
        return max(0.0, self.end_time - self.start_time)

    @property
    def throughput_bps(self) -> float:
        """Goodput in bits/second over the connection lifetime."""
        if self.duration <= 0:
            return 0.0
        return self.bytes_goodput * 8.0 / self.duration

    @property
    def mean_rtt(self) -> float:
        """Mean of all RTT samples (0 when none were taken)."""
        if not self.rtt_samples:
            return 0.0
        return sum(self.rtt_samples) / len(self.rtt_samples)

    @property
    def mean_queueing_delay(self) -> float:
        """Mean RTT inflation over the minimum observed RTT.

        This is the paper's ``q`` signal: "the difference between the
        current RTT and the minimum RTT would give an indication of q".
        """
        if not self.rtt_samples or math.isinf(self.min_rtt):
            return 0.0
        return max(0.0, self.mean_rtt - self.min_rtt)

    @property
    def loss_indicator(self) -> float:
        """Retransmitted fraction of data packets — the ``l`` in P_l."""
        if self.packets_sent == 0:
            return 0.0
        return min(1.0, self.retransmits / self.packets_sent)


class RttEstimator:
    """RFC 6298 smoothed RTT / RTO estimation."""

    def __init__(
        self,
        min_rto: float = MIN_RTO_S,
        max_rto: float = MAX_RTO_S,
    ) -> None:
        self.srtt: Optional[float] = None
        self.rttvar: Optional[float] = None
        self.min_rto = min_rto
        self.max_rto = max_rto
        self._rto = INITIAL_RTO_S
        self.min_rtt = math.inf
        self.last_rtt: Optional[float] = None

    def observe(self, rtt: float) -> None:
        """Fold one RTT sample into the estimator."""
        if rtt <= 0:
            return
        self.last_rtt = rtt
        if rtt < self.min_rtt:
            self.min_rtt = rtt
        srtt = self.srtt
        if srtt is None:
            srtt = rtt
            rttvar = rtt / 2.0
        else:
            assert self.rttvar is not None
            rttvar = 0.75 * self.rttvar + 0.25 * abs(srtt - rtt)
            srtt = 0.875 * srtt + 0.125 * rtt
        self.srtt = srtt
        self.rttvar = rttvar
        # As in Linux, the variance term is floored at tcp_rto_min so a
        # steady RTT (rttvar -> 0) cannot produce an RTO that fires on the
        # slightest delay jitter.  Comparisons, not min()/max(): this runs
        # once per ACK and no NaN reaches it.
        spread = 4.0 * rttvar
        if spread < self.min_rto:
            spread = self.min_rto
        rto = srtt + spread
        if rto < self.min_rto:
            rto = self.min_rto
        if rto > self.max_rto:
            rto = self.max_rto
        self._rto = rto

    @property
    def rto(self) -> float:
        """Current retransmission timeout."""
        return self._rto

    def backoff(self) -> None:
        """Double the RTO after a timeout (Karn's exponential backoff)."""
        self._rto = min(self.max_rto, self._rto * 2.0)


class TcpSender:
    """Base window-based TCP sender transmitting a fixed-size flow.

    Subclasses implement a congestion-control *flavour* by overriding the
    three policy hooks.  The base class itself behaves as TCP Reno with
    NewReno partial-ACK recovery.

    Parameters
    ----------
    sim, host:
        Simulation engine and the host this agent sends from.
    spec:
        Flow identity (4-tuple).
    flow_size_bytes:
        Bytes of application data to deliver; the connection completes when
        all are cumulatively acknowledged.
    on_complete:
        Called with the final :class:`ConnectionStats` when done.
    window_init / initial_ssthresh:
        Initial congestion window and slow-start threshold, in segments —
        the paper's ``windowInit_`` and ``initial_ssthresh`` knobs.
    dupack_threshold:
        Duplicate ACKs needed to trigger fast retransmit (Section 3.2's
        informed-adaptation knob).
    """

    flavour = "reno"

    def __init__(
        self,
        sim: Simulator,
        host: Host,
        spec: FlowSpec,
        flow_size_bytes: int,
        on_complete: Optional[Callable[["TcpSender"], None]] = None,
        *,
        window_init: float = 2.0,
        initial_ssthresh: float = 65536.0,
        dupack_threshold: int = DEFAULT_DUPACK_THRESHOLD,
        mss: int = MSS_BYTES,
    ) -> None:
        if flow_size_bytes <= 0:
            raise ValueError(f"flow_size_bytes must be positive, got {flow_size_bytes}")
        if window_init < 1:
            raise ValueError(f"window_init must be >= 1 segment, got {window_init}")
        if initial_ssthresh < 2:
            raise ValueError(
                f"initial_ssthresh must be >= 2 segments, got {initial_ssthresh}"
            )
        self.sim = sim
        self.host = host
        self.spec = spec
        self.flow_size = flow_size_bytes
        self.mss = mss
        self.on_complete = on_complete
        self.dupack_threshold = dupack_threshold

        self.cwnd = float(window_init)
        self.ssthresh = float(initial_ssthresh)
        self.window_init = float(window_init)

        self.snd_una = 0
        self.snd_nxt = 0
        self.dup_acks = 0
        self.in_recovery = False
        self.recovery_point = 0
        # SACK scoreboard: byte ranges above snd_una the receiver holds,
        # and segments already retransmitted in the current recovery.
        self._sacked = ByteIntervalSet()
        self._recovery_retransmitted: set = set()

        self.rtt = RttEstimator()
        self.stats = ConnectionStats(flow_id=spec.flow_id)
        # Lazy RTO: the deadline is the truth; the one pending timer event
        # only has to fire no later than it (see _arm_rto).
        self._rto_deadline: Optional[float] = None
        self._rto_timer: Optional[EventHandle] = None
        self._started = False
        self._finished = False
        # Last integer cwnd sampled into the flight recorder; growth is
        # recorded only on integer crossings so a long flow cannot flood
        # the transport ring with sub-segment increments.
        self._flightrec_cwnd = int(self.cwnd)

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def start(self) -> None:
        """Register on the host and begin transmitting."""
        if self._started:
            raise RuntimeError(f"flow {self.spec.flow_id} already started")
        self._started = True
        self.stats.start_time = self.sim.now
        self.host.register_agent(self.spec.flow_id, self)
        rec = _telemetry._active.flightrec
        if rec.enabled:
            rec.transport(
                "flow_start", self.sim.now, self.spec.flow_id,
                self.cwnd, self.ssthresh,
                detail={"flavour": self.flavour, "flow_size": self.flow_size},
            )
        self._send_available()

    def _finish(self) -> None:
        if self._finished:
            return
        self._finished = True
        self.stats.end_time = self.sim.now
        self.stats.completed = True
        self.stats.bytes_goodput = self.flow_size
        self._cancel_rto()
        self.host.unregister_agent(self.spec.flow_id)
        rec = _telemetry._active.flightrec
        if rec.enabled:
            rec.transport(
                "flow_end", self.sim.now, self.spec.flow_id,
                self.cwnd, self.ssthresh,
                detail={"retransmits": self.stats.retransmits,
                        "timeouts": self.stats.timeouts},
            )
        if self.on_complete is not None:
            self.on_complete(self)

    def abort(self) -> None:
        """Tear the connection down without completing (end of simulation)."""
        if self._finished:
            return
        self._finished = True
        self.stats.end_time = self.sim.now
        self.stats.bytes_goodput = self.snd_una
        self._cancel_rto()
        self.host.unregister_agent(self.spec.flow_id)
        rec = _telemetry._active.flightrec
        if rec.enabled:
            rec.transport(
                "flow_abort", self.sim.now, self.spec.flow_id,
                self.cwnd, self.ssthresh,
                detail={"goodput_bytes": self.snd_una},
            )

    @property
    def finished(self) -> bool:
        """Whether the flow has completed or been aborted."""
        return self._finished

    # ------------------------------------------------------------------
    # Sending
    # ------------------------------------------------------------------
    @property
    def flight_segments(self) -> float:
        """Outstanding, unacknowledged data in segments."""
        return (self.snd_nxt - self.snd_una) / self.mss

    @property
    def pipe_segments(self) -> float:
        """Estimated segments actually in the network: outstanding data,
        minus what the receiver has selectively acknowledged, plus hole
        retransmissions that are still unconfirmed."""
        in_flight = self.snd_nxt - self.snd_una - self._sacked.total_bytes
        pipe = max(0.0, in_flight / self.mss)
        if not self._recovery_retransmitted:
            return pipe
        retransmitted = 0
        for seq in self._recovery_retransmitted:
            if seq >= self.snd_una and not self._sacked.covers(seq):
                retransmitted += 1
        return pipe + retransmitted

    def _can_send(self) -> bool:
        if self._finished or self.snd_nxt >= self.flow_size:
            return False
        if self._recovery_retransmitted:
            return self.pipe_segments + 1.0 <= self.cwnd + 1e-9
        # ``pipe_segments`` outside loss repair, without the property call.
        pipe = (self.snd_nxt - self.snd_una - self._sacked.total_bytes) / self.mss
        if pipe < 0.0:
            pipe = 0.0
        return pipe + 1.0 <= self.cwnd + 1e-9

    def _send_available(self) -> None:
        while self._can_send():
            self._send_segment(self.snd_nxt, is_retransmit=False)
            snd_nxt = self.snd_nxt + self.mss
            self.snd_nxt = snd_nxt if snd_nxt < self.flow_size else self.flow_size

    def _send_segment(self, seq: int, is_retransmit: bool) -> None:
        payload = self.flow_size - seq
        if payload > self.mss:
            payload = self.mss
        spec = self.spec
        packet = Packet(
            _DATA, spec.flow_id, spec.src, spec.dst, seq, payload,
            sent_at=self.sim._now, is_retransmit=is_retransmit,
        )
        stats = self.stats
        stats.packets_sent += 1
        stats.bytes_sent += payload
        if is_retransmit:
            stats.retransmits += 1
        self.host.send(packet)
        self._arm_rto()

    # ------------------------------------------------------------------
    # RTO handling
    # ------------------------------------------------------------------
    def _arm_rto(self) -> None:
        """(Re)start the retransmission timer: it expires ``rto`` from now.

        Re-arming only moves the deadline; the pending timer event is
        replaced only when the deadline moves *earlier* than it (the RTO
        estimate shrank).  A timer that fires early re-schedules itself at
        the deadline, so the RTO is taken exactly when an eagerly
        re-armed timer would have fired.
        """
        deadline = self.sim._now + self.rtt._rto
        self._rto_deadline = deadline
        timer = self._rto_timer
        if timer is not None:
            if timer.time <= deadline:
                return
            timer.cancel()
        self._rto_timer = self.sim.schedule_at(deadline, self._rto_timer_fired)

    def _cancel_rto(self) -> None:
        if self._rto_timer is not None:
            self._rto_timer.cancel()
        self._rto_timer = self._rto_deadline = None

    def _rto_timer_fired(self) -> None:
        deadline = self._rto_deadline
        if self.sim.now < deadline:
            self._rto_timer = self.sim.schedule_at(deadline, self._rto_timer_fired)
        else:
            self._rto_timer = self._rto_deadline = None
            self._on_rto()

    def _on_rto(self) -> None:
        if self._finished or self.snd_una >= self.flow_size:
            return
        self.stats.timeouts += 1
        self.rtt.backoff()
        self.dup_acks = 0
        self.in_recovery = False
        self._sacked = ByteIntervalSet()
        self._recovery_retransmitted.clear()
        self._on_timeout_event()
        rec = _telemetry._active.flightrec
        if rec.enabled:
            rec.transport(
                "rto", self.sim.now, self.spec.flow_id,
                self.cwnd, self.ssthresh,
                detail={"rto_s": self.rtt.rto, "snd_una": self.snd_una},
            )
        # Go-back-N from the last cumulative ACK.
        self.snd_nxt = self.snd_una
        self._send_segment(self.snd_una, is_retransmit=True)
        self.snd_nxt = min(self.flow_size, self.snd_una + self.mss)

    # ------------------------------------------------------------------
    # ACK processing
    # ------------------------------------------------------------------
    def handle_packet(self, packet: Packet) -> None:
        """Entry point for packets delivered by the host (ACKs only)."""
        if packet.kind is not _ACK or self._finished:
            return
        self._process_ack(packet)

    def _process_ack(self, ack: Packet) -> None:
        # ``is not None`` rather than ``> 0``: an echo of exactly 0.0 is a
        # legitimate timestamp for a packet sent at sim time zero and must
        # still be RTT-sampled; only a missing echo is skipped.  Karn's
        # rule (no samples from retransmitted segments) is unchanged.
        if ack.echo_timestamp is not None and not ack.is_retransmit:
            rtt = self.sim._now - ack.echo_timestamp
            if rtt > 0:
                self.rtt.observe(rtt)
                stats = self.stats
                stats.rtt_samples.append(rtt)
                if rtt < stats.min_rtt:
                    stats.min_rtt = rtt
        sacked = self._sacked
        for lo, hi in ack.sack_blocks:
            # Clamp to the current send horizon: after an RTO rewinds
            # snd_nxt (go-back-N) and clears the scoreboard, straggler
            # ACKs still in flight carry SACK blocks from before the
            # rewind; re-admitting bytes beyond snd_nxt would make the
            # scoreboard claim more than is outstanding (and go-back-N
            # retransmits that range regardless).
            hi = min(hi, self.snd_nxt)
            if lo < hi:
                sacked.add(lo, hi)
        if sacked.total_bytes:
            sacked.prune_below(self.snd_una)
        if ack.seq > self.snd_una:
            self._on_new_ack(ack)
        elif ack.seq == self.snd_una and self.snd_nxt > self.snd_una:
            self._on_duplicate_ack()

    def _on_new_ack(self, ack: Packet) -> None:
        newly_acked = ack.seq - self.snd_una
        acked_segments = newly_acked / self.mss
        self.snd_una = ack.seq
        # A straggler ACK can overtake a snd_nxt that an RTO rewound
        # (go-back-N).  Sending resumes at the ACK point: left behind it,
        # _send_available would re-send ACKed bytes as new data.
        if self.snd_nxt < ack.seq:
            self.snd_nxt = ack.seq
        if self._sacked.total_bytes:
            self._sacked.prune_below(self.snd_una)
        if self._recovery_retransmitted:
            self._recovery_retransmitted = {
                seq for seq in self._recovery_retransmitted if seq >= self.snd_una
            }
        self.dup_acks = 0

        if self.in_recovery:
            if self.snd_una >= self.recovery_point:
                self._exit_recovery()
            else:
                # Partial ACK: more holes remain; keep repairing them.
                self._recovery_send()
        else:
            self._grow_window(acked_segments)

        if self.snd_una >= self.flow_size:
            self._finish()
            return
        self._arm_rto()
        self._send_available()

    def _grow_window(self, acked_segments: float) -> None:
        if self.cwnd < self.ssthresh:
            # Slow start: one segment per ACKed segment, capped at ssthresh.
            cwnd = self.cwnd + acked_segments
            self.cwnd = cwnd if cwnd < self.ssthresh else self.ssthresh
        else:
            self._on_ack_congestion_avoidance(acked_segments)
        sampled = int(self.cwnd)
        if sampled != self._flightrec_cwnd:
            self._flightrec_cwnd = sampled
            rec = _telemetry._active.flightrec
            if rec.enabled:
                rec.transport(
                    "cwnd", self.sim.now, self.spec.flow_id,
                    self.cwnd, self.ssthresh,
                )

    def _on_duplicate_ack(self) -> None:
        self.dup_acks += 1
        if self.in_recovery:
            # Each dupACK carries fresh SACK state; keep repairing and
            # let pipe-limited new data flow.
            self._recovery_send()
            self._send_available()
            return
        if self.dup_acks >= self.dupack_threshold:
            self._enter_recovery()

    def _enter_recovery(self) -> None:
        self.in_recovery = True
        self.recovery_point = self.snd_nxt
        self._recovery_retransmitted.clear()
        self.stats.fast_retransmits += 1
        self._on_loss_event()
        rec = _telemetry._active.flightrec
        if rec.enabled:
            rec.transport(
                "recovery_enter", self.sim.now, self.spec.flow_id,
                self.cwnd, self.ssthresh,
                detail={"recovery_point": self.recovery_point},
            )
        # The fast retransmit proper: repair the first hole immediately,
        # regardless of the pipe (it is what the 3 dupACKs announced).
        hole = self._next_hole()
        if hole is not None:
            self._send_segment(hole, is_retransmit=True)
            self._recovery_retransmitted.add(hole)
        self._recovery_send()

    def _exit_recovery(self) -> None:
        self.in_recovery = False
        self._recovery_retransmitted.clear()
        self.cwnd = max(1.0, self.ssthresh)
        self._flightrec_cwnd = int(self.cwnd)
        rec = _telemetry._active.flightrec
        if rec.enabled:
            rec.transport(
                "recovery_exit", self.sim.now, self.spec.flow_id,
                self.cwnd, self.ssthresh,
            )

    def _next_hole(self) -> Optional[int]:
        """First segment in [snd_una, recovery_point) that the receiver is
        missing and we have not retransmitted this recovery episode."""
        limit = min(self.recovery_point, self.flow_size)
        seq = self.snd_una
        while seq < limit:
            if seq in self._recovery_retransmitted or self._sacked.covers(seq):
                seq += self.mss
                continue
            return seq
        return None

    def _recovery_send(self) -> None:
        """SACK-based loss repair: retransmit known holes, pipe-limited."""
        while not self._finished and self.pipe_segments + 1.0 <= self.cwnd + 1e-9:
            hole = self._next_hole()
            if hole is None:
                break
            self._send_segment(hole, is_retransmit=True)
            self._recovery_retransmitted.add(hole)

    # ------------------------------------------------------------------
    # Flavour hooks (base class = Reno)
    # ------------------------------------------------------------------
    def _on_ack_congestion_avoidance(self, acked_segments: float) -> None:
        """Window growth per ACK once past slow start."""
        self.cwnd += acked_segments / max(self.cwnd, 1.0)

    def _on_loss_event(self) -> None:
        """Multiplicative decrease on a fast-retransmit loss event."""
        self.ssthresh = max(2.0, self.cwnd / 2.0)
        self.cwnd = self.ssthresh

    def _on_timeout_event(self) -> None:
        """Reaction to a retransmission timeout."""
        self.ssthresh = max(2.0, self.flight_segments / 2.0)
        self.cwnd = 1.0
