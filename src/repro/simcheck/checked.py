"""A :class:`Simulator` subclass that verifies engine invariants as it runs.

It has no run loop of its own: :meth:`repro.simnet.engine.Simulator.run`
is the one loop, and this class answers its three check sites, where the
plain engine raises on the clock and never audits:

- **clock monotonicity** (before the clock moves): an event due before
  the current clock is recorded as ``engine.clock_monotonic``;
- **clock tampering** (after the callback returns): a callback that moved
  the clock is recorded as ``engine.clock_tampered`` and the clock put
  back;
- **heap integrity** (every ``heap_check_interval`` executed events and
  when ``run()`` exits normally): heap order, no duplicate record, the
  cancelled count equal to the cancelled timers in the heap, live
  callbacks callable.

Equivalence with the unchecked engine is checked by the
checked-vs-unchecked oracle in :mod:`repro.simcheck.oracles`.
"""

from __future__ import annotations

from collections import Counter as _Counter
from typing import Optional

from ..simnet.engine import Simulator
from .violations import InvariantViolation, ViolationReport, record_violation

#: Default events between full calendar-consistency scans.  The scan is
#: O(pending events); at the default cadence its cost is amortized far
#: below the per-event work of a realistic scenario.
DEFAULT_HEAP_CHECK_INTERVAL = 4096


class CheckedSimulator(Simulator):
    """Drop-in :class:`Simulator` with runtime invariant checking.

    Parameters
    ----------
    heap_check_interval:
        Events between full calendar consistency scans (the cheap
        per-event clock checks always run).
    report:
        Optional :class:`ViolationReport`; when given, violations are
        collected there instead of raised.
    """

    def __init__(
        self,
        heap_check_interval: int = DEFAULT_HEAP_CHECK_INTERVAL,
        report: Optional[ViolationReport] = None,
    ) -> None:
        if heap_check_interval < 1:
            raise ValueError(
                f"heap_check_interval must be >= 1: {heap_check_interval}"
            )
        super().__init__()
        self.heap_check_interval = heap_check_interval
        self.report = report
        self.checks_performed = 0

    # ------------------------------------------------------------------
    # Invariant checks
    # ------------------------------------------------------------------
    def verify_heap(self) -> None:
        """Verify the calendar: heap property + live-record accounting."""
        heap = self._heap
        for index in range(1, len(heap)):
            parent = (index - 1) >> 1
            if heap[parent][:2] > heap[index][:2]:
                self._violation(
                    "engine.heap_order",
                    f"heap[{parent}]={heap[parent][:2]} > "
                    f"heap[{index}]={heap[index][:2]}",
                )
                return
        seq_counts = _Counter(record[1] for record in heap)
        for seq, count in seq_counts.items():
            if count > 1:
                self._violation(
                    "engine.heap_duplicate",
                    f"event seq {seq} appears {count} times in the calendar",
                )
                return
        # A record's callback is its third slot, or its handle's when that
        # slot is None (a timer); a cancelled timer has none.
        callbacks = [
            (record[1], record[2] if record[2] is not None else record[3]._callback)
            for record in heap
        ]
        live = sum(1 for _, callback in callbacks if callback is not None)
        if live != self.pending_events:
            self._violation(
                "engine.heap_entry_orphan",
                f"pending_events={self.pending_events} but the calendar "
                f"holds {live} live records",
            )
            return
        for seq, callback in callbacks:
            if callback is not None and not callable(callback):
                self._violation(
                    "engine.entry_not_callable",
                    f"record for seq {seq} holds non-callable "
                    f"{type(callback).__name__}",
                )
                return
        self.checks_performed += 1

    def _violation(self, invariant: str, message: str, **details: object) -> None:
        record_violation(
            InvariantViolation(
                invariant,
                "simulator",
                message,
                sim_time=self._now,
                details=dict(details) if details else None,
            ),
            self.report,
        )

    # ------------------------------------------------------------------
    # Answers to Simulator.run's check sites
    # ------------------------------------------------------------------
    def _clock_regressed(self, seq: int, time: float) -> None:
        self._violation(
            "engine.clock_monotonic",
            f"event seq {seq} fires at {time} < now {self._now}",
            event_time=time,
        )

    def _clock_tampered(self, time: float) -> None:
        self._violation(
            "engine.clock_tampered",
            f"callback moved the clock from {time} to {self._now}",
            event_time=time,
        )
        self._now = time  # restore so later checks aren't cascaded noise

    def _audit_heap(self) -> None:
        self.verify_heap()

    def run(self, until: Optional[float] = None, max_events: Optional[int] = None) -> None:
        events_before = self._events_processed
        try:
            super().run(until, max_events)
        finally:
            # The clock checks of every executed event, credited once.
            self.checks_performed += self._events_processed - events_before
