"""The lazy (deadline) retransmission timer and the RFC 6298 estimator.

Three layers of evidence that re-arming by *moving a deadline* takes
every RTO at the instant the classic cancel-and-reschedule timer did:

- a differential run: a test-local eager sender (the cancel+reschedule
  ``_arm_rto`` this repo used to have, kept only here as the reference)
  against the shipped one on a lossy dumbbell, compared on the exact
  ``(sim time, flow)`` sequence of ``_on_rto`` calls and on final stats;
- unit cases on a hand-driven sender: the deadline moving earlier when
  the RTO estimate shrinks, a timer that fires early and re-arms exactly
  once, backoff doubling, and finish/abort leaving nothing armed;
- :class:`RttEstimator` against a hand-computed RFC 6298 sequence.
"""

import pytest

from repro.experiments import FIG2C_LONG_RUNNING
from repro.experiments import run_preset
from repro.simnet import FlowSpec, Simulator
from repro.simnet.packet import make_ack_packet
from repro.transport import CubicParams
from repro.transport.base import (
    INITIAL_RTO_S,
    MAX_RTO_S,
    MIN_RTO_S,
    RttEstimator,
    TcpSender,
)
from repro.transport.cubic import CubicSender


# ----------------------------------------------------------------------
# Differential: eager reference vs the shipped lazy timer
# ----------------------------------------------------------------------
class RecordingCubic(CubicSender):
    """Cubic that logs every RTO it takes into a shared list."""

    rto_log: list

    def _on_rto(self) -> None:
        if not self.finished:
            self.rto_log.append((self.sim.now, self.spec.flow_id))
        super()._on_rto()


class EagerCubic(RecordingCubic):
    """Reference timer: cancel and reschedule on every (re-)arm.

    ``_rto_deadline`` is kept only as the running flag the sender's send
    path reads (RFC 6298 §5.1: a send starts the timer only when it is
    stopped); the scheduled event alone decides when the RTO is taken.
    """

    _eager_handle = None

    def _arm_rto(self) -> None:
        self._cancel_rto()
        self._rto_deadline = self.sim.now + self.rtt.rto
        self._eager_handle = self.sim.schedule(self.rtt.rto, self._eager_fired)

    def _cancel_rto(self) -> None:
        if self._eager_handle is not None:
            self._eager_handle.cancel()
            self._eager_handle = None
        self._rto_deadline = None

    def _eager_fired(self) -> None:
        self._eager_handle = self._rto_deadline = None
        self._on_rto()


def _lossy_run(sender_cls, seed):
    log = []
    params = CubicParams(4, 64, 0.7)

    def factory(sim, host, spec, flow_size_bytes, on_complete):
        sender = sender_cls(sim, host, spec, flow_size_bytes, on_complete, params=params)
        sender.rto_log = log
        return sender

    result = run_preset(
        lambda env: factory,
        FIG2C_LONG_RUNNING,
        duration_s=4.0,
        seed=seed,
        # The eager reference keeps no deadline field, so tcpcheck's
        # armed-iff-outstanding invariant cannot describe it.
        checked=False,
    )
    return result, log


@pytest.mark.parametrize("seed", [1, 2])
def test_lazy_timer_takes_every_rto_when_the_eager_one_did(seed):
    eager, eager_log = _lossy_run(EagerCubic, seed)
    lazy, lazy_log = _lossy_run(RecordingCubic, seed)
    assert len(eager_log) > 20, "the scenario must exercise the RTO path"
    assert lazy_log == eager_log  # identical float times, identical flows
    assert lazy.per_sender_stats == eager.per_sender_stats
    assert lazy.metrics == eager.metrics
    timeouts = sum(s.timeouts for flows in lazy.per_sender_stats for s in flows)
    assert timeouts == len(lazy_log)
    # The only extra work: a timer that fires ahead of its deadline and
    # re-arms.  It must stay a rounding error next to the eager timer's
    # two heap operations per ACK.
    extra = lazy.events_processed - eager.events_processed
    assert 0 <= extra <= 0.02 * eager.events_processed


# ----------------------------------------------------------------------
# Unit cases on a hand-driven sender
# ----------------------------------------------------------------------
class StubHost:
    """Just enough host for a sender: records what it was asked to send."""

    name = "stub"

    def __init__(self):
        self.sent = []

    def register_agent(self, flow_id, agent):
        pass

    def unregister_agent(self, flow_id):
        pass

    def send(self, packet):
        self.sent.append(packet)


def make_sender(flow_bytes=100_000):
    sim = Simulator()
    host = StubHost()
    spec = FlowSpec(1, "stub", 10_000, "peer", 443)
    sender = TcpSender(sim, host, spec, flow_bytes)
    fired = []
    on_rto = sender._on_rto

    def recording_on_rto():
        fired.append(sim.now)
        on_rto()

    sender._on_rto = recording_on_rto
    sender.start()
    return sim, sender, host, fired


def ack(seq, echo):
    packet = make_ack_packet(1, "peer", "stub", seq)
    packet.echo_timestamp = echo
    return packet


class TestDeadlineTimer:
    def test_start_arms_one_timer_at_the_initial_rto(self):
        sim, sender, host, _ = make_sender()
        assert len(host.sent) == 2  # window_init segments; the first send arms it
        assert sim.pending_events == 1
        assert sender._rto_deadline == INITIAL_RTO_S
        assert sender._rto_timer.time == INITIAL_RTO_S

    def test_deadline_moving_earlier_reschedules_the_timer(self):
        sim, sender, _, _ = make_sender()
        sim.run(until=0.1)
        sender.handle_packet(ack(sender.mss, echo=0.0))
        # One 0.1 s sample: RTO drops from 1.0 to 0.1 + max(4 * 0.05, 0.2).
        assert sender.rtt.rto == pytest.approx(0.3)
        assert sender._rto_deadline == 0.1 + sender.rtt.rto
        assert sender._rto_timer.time == sender._rto_deadline
        assert sim.pending_events == 1  # the 1.0 s timer was cancelled

    def test_rearming_later_only_moves_the_deadline(self):
        sim, sender, _, _ = make_sender()
        sim.run(until=0.1)
        sender.handle_packet(ack(sender.mss, echo=0.0))
        timer = sender._rto_timer
        sim.run(until=0.2)
        sender.handle_packet(ack(2 * sender.mss, echo=0.1))
        assert sender._rto_deadline == 0.2 + sender.rtt.rto
        assert sender._rto_timer is timer  # untouched, now due early
        assert timer.time < sender._rto_deadline
        assert sim.pending_events == 1

    def test_early_fire_rearms_exactly_once_then_fires_on_the_deadline(self):
        sim, sender, _, fired = make_sender()
        sim.run(until=0.1)
        sender.handle_packet(ack(sender.mss, echo=0.0))
        sim.run(until=0.2)
        sender.handle_packet(ack(2 * sender.mss, echo=0.1))
        early, deadline = sender._rto_timer.time, sender._rto_deadline
        before = sim.events_processed
        sim.run(until=early)
        assert sim.events_processed == before + 1  # the early fire
        assert fired == [] and sender.stats.timeouts == 0
        assert sender._rto_timer.time == deadline
        assert sim.pending_events == 1
        sim.run(until=deadline)
        assert sim.events_processed == before + 2  # no third hop
        assert fired == [deadline]
        assert sender.stats.timeouts == 1

    def test_backoff_doubles_the_interval_between_rtos(self):
        sim, sender, host, fired = make_sender()
        sim.run(until=40.0)
        assert fired == [1.0, 3.0, 7.0, 15.0, 31.0]
        assert sender.rtt.rto == 32.0
        assert sender.stats.timeouts == 5
        assert sim.events_processed == 5  # unacked: never an early fire
        assert all(p.is_retransmit and p.seq == 0 for p in host.sent[2:])
        sim.run(until=200.0)
        # 32 s after 31.0, then the cap: 60 s apart, not 64 and 128.
        assert fired[5:] == [63.0, 63.0 + MAX_RTO_S, 63.0 + 2 * MAX_RTO_S]

    def test_rto_rearms_itself_through_the_retransmission(self):
        sim, sender, _, fired = make_sender()
        sim.run(until=1.0)
        assert fired == [1.0]
        assert sender._rto_deadline == 1.0 + 2 * INITIAL_RTO_S
        assert sender._rto_timer.time == sender._rto_deadline

    def test_finish_disarms(self):
        sim, sender, _, fired = make_sender(flow_bytes=2000)
        sim.run(until=0.1)
        sender.handle_packet(ack(2000, echo=0.0))
        assert sender.finished and sender.stats.completed
        assert sender._rto_deadline is None and sender._rto_timer is None
        assert sim.pending_events == 0
        sim.run(until=10.0)
        assert fired == []

    def test_finishing_ack_overtaking_a_rewound_snd_nxt_keeps_sequence_order(self):
        # Fuzz seed 26: the RTO's go-back-N rewinds snd_nxt, then the
        # ACK for everything sent before the rewind completes the flow.
        sim, sender, _, fired = make_sender(flow_bytes=2500)
        assert sender.snd_nxt == 2500  # the initial window covers the flow
        sim.run(until=INITIAL_RTO_S + 0.1)
        assert fired and sender.snd_una == 0 and sender.snd_nxt < 2500
        sender.handle_packet(ack(2500, echo=0.0))
        assert sender.finished
        assert sender.snd_una == sender.snd_nxt == sender.flow_size == 2500

    def test_straggler_ack_overtaking_a_rewound_snd_nxt_resumes_from_snd_una(self):
        # RTO -> go-back-N rewind -> the cumulative ACK for what was sent
        # before the rewind lands beyond snd_nxt, and the flow goes on:
        # the next segment sent is new data, not bytes just ACKed.
        sim, sender, host, fired = make_sender()
        mss = sender.mss
        sim.run(until=INITIAL_RTO_S + 0.1)
        assert fired and sender.snd_una == 0 and sender.snd_nxt == mss
        sent_before = len(host.sent)
        sender.handle_packet(ack(2 * mss, echo=0.0))
        assert not sender.finished and sender.snd_una == 2 * mss
        resumed = host.sent[sent_before:]
        assert [p.seq for p in resumed] == [2 * mss, 3 * mss]
        assert not any(p.is_retransmit for p in resumed)
        assert sender.snd_nxt == 4 * mss

    def test_abort_disarms(self):
        sim, sender, _, fired = make_sender()
        sim.run(until=0.5)
        sender.abort()
        assert sender._rto_deadline is None and sender._rto_timer is None
        assert sim.pending_events == 0
        sim.run(until=10.0)
        assert fired == [] and sender.stats.timeouts == 0


# ----------------------------------------------------------------------
# RFC 6298 oracle
# ----------------------------------------------------------------------
class TestRfc6298:
    """srtt/rttvar/RTO by hand: alpha = 1/8, beta = 1/4, K = 4, and the
    ``max(G, K * RTTVAR)`` term with G = ``MIN_RTO_S`` (the Linux-style
    floor this estimator documents)."""

    #: sample -> (srtt, rttvar, rto), each row worked from the one above:
    #: rttvar' = 3/4 rttvar + 1/4 |srtt - R|, srtt' = 7/8 srtt + 1/8 R.
    HAND_COMPUTED = [
        (0.100, (0.100, 0.050, 0.300)),  # first: srtt=R, rttvar=R/2
        (0.200, (0.1125, 0.0625, 0.3625)),  # 4*rttvar = 0.25 > G
        (0.100, (0.1109375, 0.050, 0.3109375)),
        (0.100, (0.1095703125, 0.040234375, 0.3095703125)),  # G floors K*rttvar
    ]

    def test_hand_computed_sequence(self):
        est = RttEstimator()
        assert est.rto == INITIAL_RTO_S and est.srtt is None
        for sample, (srtt, rttvar, rto) in self.HAND_COMPUTED:
            est.observe(sample)
            assert est.srtt == pytest.approx(srtt, rel=1e-12)
            assert est.rttvar == pytest.approx(rttvar, rel=1e-12)
            assert est.rto == pytest.approx(rto, rel=1e-12)
        assert est.last_rtt == 0.100 and est.min_rtt == 0.100

    def test_steady_rtt_converges_to_srtt_plus_floor(self):
        est = RttEstimator()
        for _ in range(200):
            est.observe(0.150)
        assert est.srtt == pytest.approx(0.150)
        assert est.rttvar == pytest.approx(0.0, abs=1e-12)
        assert est.rto == pytest.approx(0.150 + MIN_RTO_S)

    def test_max_clamp(self):
        est = RttEstimator()
        est.observe(50.0)  # 50 + 4 * 25 = 150 s unclamped
        assert est.rto == MAX_RTO_S

    def test_min_clamp_is_a_floor_on_every_rto(self):
        est = RttEstimator()
        est.observe(0.001)
        assert est.rto == pytest.approx(0.001 + MIN_RTO_S)  # srtt + max(4 * rttvar, G)
        assert est.rto >= MIN_RTO_S
        est.observe(100.0)
        assert est.rto == MAX_RTO_S

    def test_backoff_doubles_up_to_the_cap_and_a_sample_resets_it(self):
        est = RttEstimator()
        est.observe(0.100)
        seen = []
        for _ in range(10):
            est.backoff()
            seen.append(est.rto)
        expected = [min(MAX_RTO_S, 0.3 * 2 ** k) for k in range(1, 11)]
        assert seen == pytest.approx(expected, rel=1e-12)
        assert seen[-1] == MAX_RTO_S
        est.observe(0.100)  # Karn: the next clean sample recomputes the RTO
        assert est.rto < 1.0
