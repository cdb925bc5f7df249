"""A :class:`Simulator` subclass that verifies engine invariants as it runs.

The checked run loop mirrors :meth:`repro.simnet.engine.Simulator.run`
exactly — same watchdog placement, same ``until`` restore, same
telemetry accounting — and adds three families of checks:

- **clock monotonicity**: every executed event fires at a time ``>=`` the
  current clock, and no callback rewinds the clock behind the engine's
  back;
- **heap integrity**: the calendar's heap property holds, no record
  appears twice, and the engine's count of cancelled-but-unpopped
  records matches the cancelled timers actually in the heap, verified
  every ``heap_check_interval`` events and at the end of each ``run()``;
- **schedule sanity**: inherited from the base engine (NaN and
  past-scheduling already raise there).

Semantic equivalence with the unchecked engine is itself enforced by the
checked-vs-unchecked differential oracle in
:mod:`repro.simcheck.oracles`, which requires bit-identical results.
"""

from __future__ import annotations

import heapq
import math
from collections import Counter as _Counter
from typing import Optional

from ..simnet.engine import SimulationError, Simulator
from ..telemetry import session as _telemetry_session
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
    # Checked run loop (mirror of Simulator.run + checks)
    # ------------------------------------------------------------------
    def run(self, until: Optional[float] = None, max_events: Optional[int] = None) -> None:
        if self._running:
            raise SimulationError("run() is not reentrant")
        if until is not None and math.isnan(until):
            # ``time > nan`` is always false: the loop would never stop.
            raise SimulationError("cannot run until NaN time")
        self._running = True
        events_before = self._events_processed
        heap = self._heap
        pop = heapq.heappop
        executed = 0
        watchdog = self._watchdog
        if watchdog is not None:
            watchdog.arm()
        interval = self.heap_check_interval
        next_scan = interval
        try:
            while heap:
                if max_events is not None and executed >= max_events:
                    break
                if watchdog is not None:
                    # Checked before the pop so a raised SimulationStalled
                    # never discards the event it interrupted.
                    watchdog.check(self)
                time, seq, callback, args = heap[0]
                if callback is None:
                    # A timer: the record's last slot is its handle.
                    handle = args
                    callback = handle._callback
                    if callback is None:
                        pop(heap)  # cancelled; discard lazily
                        self._cancelled_pending -= 1
                        continue
                    if until is not None and time > until:
                        break  # not due yet: it stays in the calendar
                    handle._sim = None
                    args = handle._args
                elif until is not None and time > until:
                    break
                pop(heap)
                if time < self._now:
                    self._violation(
                        "engine.clock_monotonic",
                        f"event seq {seq} fires at {time} < now {self._now}",
                        event_time=time,
                    )
                self._now = time
                self._events_processed += 1
                executed += 1
                callback(*args)
                if self._now != time:
                    self._violation(
                        "engine.clock_tampered",
                        f"callback moved the clock from {time} to {self._now}",
                        event_time=time,
                    )
                    self._now = time  # restore so later checks aren't cascaded noise
                if executed == next_scan:
                    next_scan += interval
                    self.verify_heap()
            self.verify_heap()
        finally:
            self._running = False
            # The clock checks of every executed event, credited once.
            self.checks_performed += executed
            # Telemetry is charged once per run() call, not per event, so
            # the hot loop above stays untouched (the <=2% overhead budget).
            tele = _telemetry_session()
            if tele.enabled:
                registry = tele.registry
                registry.counter("sim.events").inc(
                    self._events_processed - events_before
                )
                registry.counter("sim.run_calls").inc()
                registry.gauge("sim.pending_events").set(self.pending_events)
                registry.gauge("sim.clock_s").set(self._now)
        if until is not None and self._now < until:
            next_time = self.peek_time()
            if next_time is None or next_time > until:
                self._now = until
