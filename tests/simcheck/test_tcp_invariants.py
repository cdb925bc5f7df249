"""Tests for the TCP sender invariant checks and their installation."""

import math
from types import SimpleNamespace

import pytest

from repro.simcheck import (
    InvariantViolation,
    ViolationReport,
    check_sender_invariants,
    checked_factory,
    install_sender_checks,
)
from repro.simnet import DumbbellConfig, DumbbellTopology, FlowSpec, Simulator
from repro.transport.base import TcpSender
from repro.transport.sink import TcpSink


def make_sender(flow_bytes=50_000, **kwargs):
    sim = Simulator()
    top = DumbbellTopology(sim, DumbbellConfig(n_senders=1))
    spec = FlowSpec(1, top.senders[0].name, 10_000, top.receivers[0].name, 443)
    done = []
    TcpSink(sim, top.receivers[0], spec)
    sender = TcpSender(sim, top.senders[0], spec, flow_bytes, done.append, **kwargs)
    return sim, sender, done


def fake_sender(**overrides):
    """A minimal stand-in exposing exactly what the checker reads."""
    fields = dict(
        spec=SimpleNamespace(flow_id=7),
        sim=SimpleNamespace(now=1.0),
        snd_una=0,
        snd_nxt=0,
        flow_size=10_000,
        cwnd=2.0,
        pipe_segments=0.0,
        _sacked=SimpleNamespace(total_bytes=0),
        _rto_deadline=None,
        _rto_timer=None,
        finished=False,
    )
    fields.update(overrides)
    return SimpleNamespace(**fields)


def armed(deadline=2.0, timer_time=1.5, cancelled=False):
    """The deadline field plus a pending timer event due by it."""
    return dict(
        _rto_deadline=deadline,
        _rto_timer=SimpleNamespace(cancelled=cancelled, time=timer_time),
    )


def violations_for(sender):
    report = ViolationReport()
    check_sender_invariants(sender, report)
    return [v.invariant for v in report.violations]


class TestCheckerLogic:
    def test_consistent_sender_passes(self):
        assert violations_for(fake_sender()) == []

    def test_sequence_disorder_flagged(self):
        flagged = violations_for(fake_sender(snd_una=5000, snd_nxt=4000))
        assert "tcp.sequence_order" in flagged

    def test_snd_nxt_beyond_flow_size_flagged(self):
        sender = fake_sender(snd_una=0, snd_nxt=20_000, **armed())
        assert "tcp.sequence_order" in violations_for(sender)

    def test_cwnd_below_one_segment_flagged(self):
        assert violations_for(fake_sender(cwnd=0.5)) == ["tcp.cwnd_floor"]

    def test_non_finite_cwnd_flagged(self):
        assert violations_for(fake_sender(cwnd=math.nan)) == ["tcp.cwnd_floor"]
        assert violations_for(fake_sender(cwnd=math.inf)) == ["tcp.cwnd_floor"]

    def test_negative_pipe_flagged(self):
        assert violations_for(fake_sender(pipe_segments=-1.0)) == ["tcp.pipe_negative"]

    def test_sack_overrun_flagged(self):
        sender = fake_sender(
            snd_una=0,
            snd_nxt=1000,
            _sacked=SimpleNamespace(total_bytes=2000),
            **armed(),
        )
        assert "tcp.sack_overrun" in violations_for(sender)

    def test_rto_armed_after_finish_flagged(self):
        assert violations_for(fake_sender(finished=True, **armed())) == [
            "tcp.rto_after_finish"
        ]

    def test_deadline_or_timer_left_behind_after_finish_flagged(self):
        stale_deadline = fake_sender(finished=True, _rto_deadline=2.0)
        assert violations_for(stale_deadline) == ["tcp.rto_after_finish"]
        stale_timer = fake_sender(
            finished=True, _rto_timer=SimpleNamespace(cancelled=False, time=2.0)
        )
        assert violations_for(stale_timer) == ["tcp.rto_after_finish"]

    def test_armed_sender_with_data_outstanding_passes(self):
        assert violations_for(fake_sender(snd_nxt=3000, **armed())) == []
        on_time = fake_sender(snd_nxt=3000, **armed(deadline=2.0, timer_time=2.0))
        assert violations_for(on_time) == []

    def test_outstanding_without_rto_flagged(self):
        sender = fake_sender(snd_una=0, snd_nxt=3000)
        assert violations_for(sender) == ["tcp.rto_disarmed"]

    def test_cancelled_rto_handle_counts_as_disarmed(self):
        sender = fake_sender(snd_una=0, snd_nxt=3000, **armed(cancelled=True))
        assert violations_for(sender) == ["tcp.rto_disarmed"]

    def test_deadline_without_a_timer_counts_as_disarmed(self):
        sender = fake_sender(snd_una=0, snd_nxt=3000, _rto_deadline=2.0)
        assert violations_for(sender) == ["tcp.rto_disarmed"]

    def test_timer_due_after_the_deadline_counts_as_disarmed(self):
        # The lazy timer may fire early, never late: a timer beyond the
        # deadline would take the RTO later than the eager one did.
        sender = fake_sender(
            snd_una=0, snd_nxt=3000, **armed(deadline=2.0, timer_time=2.5)
        )
        assert violations_for(sender) == ["tcp.rto_disarmed"]

    def test_raises_without_report(self):
        with pytest.raises(InvariantViolation) as excinfo:
            check_sender_invariants(fake_sender(cwnd=0.0))
        assert excinfo.value.invariant == "tcp.cwnd_floor"
        assert excinfo.value.subject == "flow-7"


class TestInstallation:
    def test_checked_flow_completes_clean(self):
        sim, sender, done = make_sender(200_000)
        report = ViolationReport()
        install_sender_checks(sender, report)
        sender.start()
        sim.run(until=120.0)
        assert done and sender.stats.completed
        assert report.ok
        assert report.checks_performed > 0

    def test_snd_nxt_behind_snd_una_is_caught_before_the_send_loop_hides_it(self):
        sim, sender, _ = make_sender(200_000)
        report = ViolationReport()
        install_sender_checks(sender, report)
        sender.start()
        sim.run(until=1.0)
        assert sender.snd_una > 0 and report.ok
        # What an RTO rewind plus a straggler ACK left before _on_new_ack
        # clamped snd_nxt: new data would start below the ACK point.
        sender.snd_nxt = sender.snd_una - sender.mss
        sender._send_available()
        assert [v.invariant for v in report.violations] == ["tcp.sequence_order"]
        # The loop re-sent the ACKed segment and moved on: by the next
        # stable point there is nothing left to see.
        assert sender.snd_nxt > sender.snd_una
        check_sender_invariants(sender, report)
        assert len(report.violations) == 1

    def test_real_violation_raises_out_of_the_run(self):
        sim, sender, _ = make_sender(5_000_000)  # still in flight at t=1
        install_sender_checks(sender, report=None)
        sender.start()
        # Sabotage the sequence bookkeeping mid-flight (the window would
        # regrow within one ACK): the next stable point must trip.
        sim.schedule(
            1.0, lambda: setattr(sender, "snd_una", sender.snd_nxt + 1)
        )
        with pytest.raises(InvariantViolation):
            sim.run(until=120.0)

    def test_checked_factory_wraps_and_preserves_behaviour(self):
        report = ViolationReport()

        def factory(sim, host, spec, flow_size_bytes, on_complete):
            return TcpSender(sim, host, spec, flow_size_bytes, on_complete)

        sim = Simulator()
        top = DumbbellTopology(sim, DumbbellConfig(n_senders=1))
        spec = FlowSpec(1, top.senders[0].name, 10_000, top.receivers[0].name, 443)
        TcpSink(sim, top.receivers[0], spec)
        done = []
        sender = checked_factory(factory, report)(
            sim, top.senders[0], spec, 30_000, done.append
        )
        sender.start()
        sim.run(until=60.0)
        assert done and sender.stats.completed
        assert report.ok and report.checks_performed > 0

    def test_checks_do_not_perturb_trajectory(self):
        def run(checked):
            sim, sender, _ = make_sender(500_000)
            if checked:
                install_sender_checks(sender, ViolationReport())
            sender.start()
            sim.run(until=120.0)
            return (
                sender.stats.end_time,
                sender.stats.packets_sent,
                tuple(sender.stats.rtt_samples),
            )

        assert run(False) == run(True)
