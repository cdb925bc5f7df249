"""Tests for the TCP sender invariant checks and their installation."""

import math
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.simcheck import (
    InvariantViolation,
    ViolationReport,
    check_sender_invariants,
    checked_factory,
    install_sender_checks,
)
from repro.simcheck.violations import record_violation
from repro.simnet import DumbbellConfig, DumbbellTopology, FlowSpec, Simulator
from repro.transport.base import TcpSender
from repro.transport.sink import TcpSink

from ..transport.test_rto_timer import StubHost, ack


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
        _recovery_retransmitted=set(),
        _rto_deadline=None,
        _rto_timer=None,
        finished=False,
    )
    fields.update(overrides)
    fields.setdefault("_finished", fields["finished"])
    return SimpleNamespace(**fields)


def fake_timer(time, cancelled=False):
    """A timer event as the checker reads it: cancelling blanks its callback."""
    return SimpleNamespace(
        time=time,
        cancelled=cancelled,
        _callback=None if cancelled else (lambda: None),
    )


def armed(deadline=2.0, timer_time=1.5, cancelled=False):
    """The deadline field plus a pending timer event due by it."""
    return dict(
        _rto_deadline=deadline, _rto_timer=fake_timer(timer_time, cancelled)
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
        # Only loss repair adds to the pipe estimate; outside it the sender
        # floors it at zero, so a negative one has segments in repair.
        sender = fake_sender(pipe_segments=-1.0, _recovery_retransmitted={0})
        assert violations_for(sender) == ["tcp.pipe_negative"]

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
        stale_timer = fake_sender(finished=True, _rto_timer=fake_timer(2.0))
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


def _reference_sequence_order(sender, report=None):
    """The sequence-order check as it was written before the fast path."""
    if not 0 <= sender.snd_una <= sender.snd_nxt <= sender.flow_size:
        record_violation(
            InvariantViolation(
                "tcp.sequence_order",
                f"flow-{sender.spec.flow_id}",
                f"snd_una={sender.snd_una} snd_nxt={sender.snd_nxt} "
                f"flow_size={sender.flow_size} out of order",
                sim_time=sender.sim.now,
                details={"snd_una": sender.snd_una, "snd_nxt": sender.snd_nxt},
            ),
            report,
        )
    if report is not None:
        report.counted(1)


def _reference_sender_invariants(sender, report=None):
    """Every stable-point check run unconditionally: the reference the
    one-predicate pass path must agree with."""
    subject = f"flow-{sender.spec.flow_id}"
    now = sender.sim.now

    def fail(invariant, message, **details):
        record_violation(
            InvariantViolation(
                invariant, subject, message, sim_time=now, details=dict(details)
            ),
            report,
        )

    _reference_sequence_order(sender, report)
    if not math.isfinite(sender.cwnd) or sender.cwnd < 1.0 - 1e-9:
        fail("tcp.cwnd_floor", f"cwnd={sender.cwnd} below one segment", cwnd=sender.cwnd)
    if sender.pipe_segments < 0:
        fail(
            "tcp.pipe_negative",
            f"pipe_segments={sender.pipe_segments}",
            pipe=sender.pipe_segments,
        )
    sacked = sender._sacked.total_bytes
    outstanding = sender.snd_nxt - sender.snd_una
    if sacked > outstanding:
        fail(
            "tcp.sack_overrun",
            f"SACK scoreboard covers {sacked}B of {outstanding}B outstanding",
            sacked=sacked,
            outstanding=outstanding,
        )
    deadline, timer = sender._rto_deadline, sender._rto_timer
    timer_pending = timer is not None and not timer.cancelled
    if sender.finished and (deadline is not None or timer_pending):
        fail("tcp.rto_after_finish", "RTO armed on a finished sender")
    rto_armed = deadline is not None and timer_pending and timer.time <= deadline
    if not sender.finished and outstanding > 0 and not rto_armed:
        fail(
            "tcp.rto_disarmed",
            f"{outstanding}B outstanding but no RTO armed",
            outstanding=outstanding,
        )
    if report is not None:
        report.counted(5)


MSS = 1460


@st.composite
def sender_states(draw):
    """Sender fields as the checker reads them, every invariant breakable:
    sequence disorder, NaN / inf / sub-one cwnd, SACK overrun, negative
    pipe in recovery, finished with a pending timer, a timer due after
    the deadline.  ``pipe_segments`` is free only in recovery; outside it
    it is the sender's own ``max(0.0, ...)``."""
    flow_size = draw(st.integers(1, 12)) * MSS
    sequence = st.integers(-MSS, flow_size + 2 * MSS)
    snd_una, snd_nxt = draw(sequence), draw(sequence)
    cwnd = draw(st.one_of(
        st.sampled_from([1.0, 1.0 - 1e-9, 1.0 - 2e-9, 0.5, 0.0, -1.0,
                         math.nan, math.inf, -math.inf]),
        st.floats(allow_nan=True, allow_infinity=True),
    ))
    sacked = draw(st.integers(0, flow_size + MSS))
    recovery = draw(st.sets(st.integers(0, 12).map(lambda n: n * MSS), max_size=3))
    if recovery:
        pipe = draw(st.floats(-4.0, 40.0))
    else:
        pipe = max(0.0, (snd_nxt - snd_una - sacked) / MSS)
    finished = draw(st.booleans())
    deadline = draw(st.one_of(st.none(), st.floats(0.0, 4.0)))
    timer = None
    if draw(st.booleans()):
        timer = Simulator().schedule_at(draw(st.floats(0.0, 4.0)), lambda: None)
        if draw(st.booleans()):
            timer.cancel()
    return fake_sender(
        snd_una=snd_una, snd_nxt=snd_nxt, flow_size=flow_size, cwnd=cwnd,
        pipe_segments=pipe, _sacked=SimpleNamespace(total_bytes=sacked),
        _recovery_retransmitted=recovery, _rto_deadline=deadline,
        _rto_timer=timer, finished=finished,
    )


def _outcome(check, sender):
    """(violations, checks) with a report; the raised violation without."""
    report = ViolationReport()
    check(sender, report)
    collected = [v.as_dict() for v in report.violations]
    try:
        check(sender)
        raised = None
    except InvariantViolation as violation:
        raised = violation.as_dict()
    return collected, report.checks_performed, raised


def _timer(time, cancelled):
    timer = Simulator().schedule_at(time, lambda: None)
    if cancelled:
        timer.cancel()
    return timer


#: Hand-built states where the timer clause alone decides the verdict
#: (every other invariant holds): a finished sender with a pending or a
#: cancelled timer, and one with data outstanding whose only timer is
#: pending or cancelled.  Drawn states seldom isolate either clause.
TIMER_DECIDES = (
    fake_sender(finished=True, _rto_timer=_timer(2.0, cancelled=False)),
    fake_sender(finished=True, _rto_timer=_timer(2.0, cancelled=True)),
    fake_sender(snd_nxt=3000, _rto_deadline=2.0, _rto_timer=_timer(1.5, cancelled=True)),
    fake_sender(snd_nxt=3000, _rto_deadline=2.0, _rto_timer=_timer(1.5, cancelled=False)),
)


@pytest.fixture(scope="module")
def checked_states():
    """(checker outcome, reference outcome) for each of the 600 drawn
    states and the hand-built ones: one pass of the strategy, read by
    both tests below."""
    outcomes = []

    def compare(sender):
        outcomes.append((
            _outcome(check_sender_invariants, sender),
            _outcome(_reference_sender_invariants, sender),
        ))

    given(sender=sender_states())(
        settings(max_examples=600, deadline=None, derandomize=True)(compare)
    )()
    for sender in TIMER_DECIDES:
        compare(sender)
    return outcomes


class TestCheckerMatchesReference:
    def test_same_violations_and_check_count(self, checked_states):
        for got, expected in checked_states:
            assert got == expected

    def test_states_reach_every_invariant(self, checked_states):
        # The strategy is only a proof if it breaks each invariant, alone
        # or together, somewhere in the examples the property runs.
        seen = set()
        for _, expected in checked_states:
            seen.update(v["invariant"] for v in expected[0])
            seen.add("violated" if expected[0] else "ok")
        assert seen == {
            "ok", "violated", "tcp.sequence_order", "tcp.cwnd_floor",
            "tcp.pipe_negative", "tcp.sack_overrun", "tcp.rto_after_finish",
            "tcp.rto_disarmed",
        }


class ArmOnEverySend(TcpSender):
    """The sender before it followed RFC 6298 §5.1: every send restarts
    the retransmission timer, running or not."""

    def _send_segment(self, seq: int, is_retransmit: bool) -> None:
        super()._send_segment(seq, is_retransmit)
        self._arm_rto()


class TestInstallation:
    @pytest.mark.parametrize(
        ("sender_cls", "flagged"),
        [(TcpSender, []), (ArmOnEverySend, ["tcp.rto_pushed_by_send"])],
        ids=["shipped", "arm-on-every-send"],
    )
    def test_a_send_never_moves_a_running_deadline_later(self, sender_cls, flagged):
        sim = Simulator()
        sender = sender_cls(sim, StubHost(), FlowSpec(1, "stub", 10_000, "peer", 443), 100_000)
        report = ViolationReport()
        install_sender_checks(sender, report)
        sender.start()
        sim.run(until=0.1)
        sender.handle_packet(ack(sender.mss, 0.0))  # new data: §5.3 restarts it
        deadline = sender._rto_deadline
        sim.run(until=0.2)
        for _ in range(sender.dupack_threshold):  # the fast retransmit is a send
            sender.handle_packet(ack(sender.mss, None))
        assert sender.in_recovery
        assert [v.invariant for v in report.violations] == flagged
        assert (sender._rto_deadline == deadline) == (not flagged)

    def test_checked_flow_completes_clean(self):
        sim, sender, done = make_sender(200_000)
        report = ViolationReport()
        install_sender_checks(sender, report)
        sender.start()
        sim.run(until=120.0)
        assert done and sender.stats.completed
        assert report.ok
        assert report.checks_performed > 0

    def test_six_checks_per_stable_point_and_one_per_send_loop(self):
        sim, sender, _ = make_sender(200_000)
        calls = dict.fromkeys(("handle_packet", "_on_rto", "_send_available"), 0)
        for name in calls:
            def counting(*args, _name=name, _original=getattr(sender, name)):
                calls[_name] += 1
                return _original(*args)

            setattr(sender, name, counting)
        report = ViolationReport()
        install_sender_checks(sender, report)
        sender.start()
        sim.schedule(0.5, sender._on_rto)  # one stable point of each kind
        sim.run(until=120.0)
        assert calls["handle_packet"] > 0 and calls["_on_rto"] == 1
        assert report.ok and report.checks_performed == (
            6 * (calls["handle_packet"] + calls["_on_rto"]) + calls["_send_available"]
        )

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
