"""TCP sender invariant checks and zero-overhead installation hooks.

Checks run at the sender's *stable points* — after a fully processed ACK
(:meth:`~repro.transport.base.TcpSender.handle_packet`) and after an RTO
fires — when the window bookkeeping must be consistent:

- ``0 <= snd_una <= snd_nxt <= flow_size`` — this one also right before
  each burst of new data (``_send_available``): a ``snd_nxt`` left behind
  ``snd_una`` is sent from, re-sending ACKed bytes, and the send loop has
  carried it back past ``snd_una`` by the next stable point;
- ``cwnd >= 1`` (every flavour, including the whisker table, clamps at
  one segment);
- ``pipe_segments >= 0`` and the SACK scoreboard never covers more than
  the outstanding byte range;
- RTO timer discipline: a finished sender has no armed RTO, and a sender
  with data outstanding always has one.  "Armed" is the sender's
  deadline field backed by a pending timer event due no later than it
  (the timer is lazy: see :meth:`~repro.transport.base.TcpSender._arm_rto`);
- a send never moves a running timer's deadline later (RFC 6298 §5.1):
  across an ACK that acknowledges no new data, where only sends can touch
  the timer, a deadline that was set is not pushed back.

Installation is per-instance monkeypatching (``install_sender_checks``
wraps ``handle_packet``/``_on_rto``/``_send_available`` as instance
attributes), so senders in an unchecked run carry no wrapper and pay
exactly nothing — the same strict no-op contract as telemetry.
"""

from __future__ import annotations

import math
from typing import Callable, Optional

from ..transport.base import TcpSender
from ..workload.onoff import SenderFactory
from .violations import InvariantViolation, ViolationReport, record_violation

#: Slack for float window comparisons (cwnd is a float of segments).
_CWND_EPSILON = 1e-9

_INF = math.inf


def _check_sequence_order(
    sender: TcpSender,
    report: Optional[ViolationReport] = None,
) -> None:
    """Verify ``0 <= snd_una <= snd_nxt <= flow_size`` for one sender."""
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


def check_sender_invariants(
    sender: TcpSender,
    report: Optional[ViolationReport] = None,
) -> None:
    """Verify one sender's window/timer invariants at a stable point."""
    # Every invariant below as one predicate over plain fields (no property,
    # closure or string): a passing sender costs this frame alone.  The pipe
    # is read only in loss repair; outside it the property is a max(0, ...).
    snd_una, snd_nxt = sender.snd_una, sender.snd_nxt
    outstanding = snd_nxt - snd_una
    deadline, timer = sender._rto_deadline, sender._rto_timer
    if (
        0 <= snd_una <= snd_nxt <= sender.flow_size
        and 1.0 - _CWND_EPSILON <= sender.cwnd < _INF
        and sender._sacked.total_bytes <= outstanding
        and (
            deadline is None and (timer is None or timer._callback is None)
            if sender._finished
            else outstanding <= 0 or (
                deadline is not None and timer is not None
                and timer._callback is not None and timer.time <= deadline
            )
        )
        and (not sender._recovery_retransmitted or sender.pipe_segments >= 0)
    ):
        if report is not None:
            report.checks_performed += 6
        return
    _report_sender_violations(sender, report)


def _report_sender_violations(
    sender: TcpSender, report: Optional[ViolationReport]
) -> None:
    """Run every stable-point check, naming and detailing each failure."""
    subject = f"flow-{sender.spec.flow_id}"
    now = sender.sim.now

    def fail(invariant: str, message: str, **details: float) -> None:
        record_violation(
            InvariantViolation(
                invariant, subject, message, sim_time=now, details=dict(details)
            ),
            report,
        )

    _check_sequence_order(sender, report)
    if not math.isfinite(sender.cwnd) or sender.cwnd < 1.0 - _CWND_EPSILON:
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


def install_sender_checks(
    sender: TcpSender,
    report: Optional[ViolationReport] = None,
) -> TcpSender:
    """Wrap ``sender`` so invariants are verified at every stable point.

    Wraps ``handle_packet``, ``_on_rto`` and ``_send_available`` (sequence
    order only: mid-ACK is not a stable point) as instance attributes;
    call before :meth:`~repro.transport.base.TcpSender.start` so the first
    armed timer resolves the wrapped method.  Returns the sender.
    """
    original_handle = sender.handle_packet
    original_on_rto = sender._on_rto
    original_send_available = sender._send_available

    def checked_handle(packet) -> None:
        snd_una, deadline = sender.snd_una, sender._rto_deadline
        original_handle(packet)
        moved = sender._rto_deadline
        if None not in (deadline, moved) and moved > deadline and sender.snd_una == snd_una:
            record_violation(InvariantViolation(
                "tcp.rto_pushed_by_send", f"flow-{sender.spec.flow_id}",
                f"a send moved the running RTO deadline from {deadline} to {moved}",
                sim_time=sender.sim.now, details={"deadline": deadline, "moved_to": moved},
            ), report)
        check_sender_invariants(sender, report)

    def checked_on_rto() -> None:
        original_on_rto()
        check_sender_invariants(sender, report)

    def checked_send_available() -> None:
        if 0 <= sender.snd_una <= sender.snd_nxt <= sender.flow_size:
            if report is not None:
                report.checks_performed += 1
        else:
            _check_sequence_order(sender, report)
        original_send_available()

    sender.handle_packet = checked_handle  # type: ignore[method-assign]
    sender._send_available = checked_send_available  # type: ignore[method-assign]
    sender._on_rto = checked_on_rto  # type: ignore[method-assign]
    return sender


def checked_factory(
    factory: SenderFactory,
    report: Optional[ViolationReport] = None,
) -> SenderFactory:
    """A :class:`SenderFactory` whose senders carry invariant checks."""

    def build(
        sim, host, spec, flow_size_bytes: int, on_complete: Callable
    ) -> TcpSender:
        sender = factory(sim, host, spec, flow_size_bytes, on_complete)
        return install_sender_checks(sender, report)

    return build
