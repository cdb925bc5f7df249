"""Tests for the CheckedSimulator: clock, heap, and calendar invariants."""

import heapq

import pytest

from repro import telemetry
from repro.simcheck import (
    CheckedSimulator,
    InvariantViolation,
    ViolationReport,
)
from repro.simnet.engine import (
    SimulationError,
    SimulationStalled,
    Simulator,
    SimWatchdog,
    WatchdogConfig,
)


class TestDropInBehaviour:
    """A checked simulator is observably identical to the plain engine."""

    def test_events_fire_in_order(self):
        sim = CheckedSimulator()
        order = []
        sim.schedule(3.0, order.append, 3)
        sim.schedule(1.0, order.append, 1)
        sim.schedule(2.0, order.append, 2)
        sim.run()
        assert order == [1, 2, 3]
        assert sim.now == 3.0

    def test_run_until_restores_undue_event(self):
        sim = CheckedSimulator()
        fired = []
        sim.schedule(1.0, fired.append, 1)
        sim.schedule(5.0, fired.append, 5)
        sim.run(until=2.0)
        assert fired == [1] and sim.now == 2.0
        sim.run()
        assert fired == [1, 5] and sim.now == 5.0

    def test_matches_unchecked_trace(self):
        def drive(sim):
            trace = []

            def chain(n):
                trace.append((sim.now, n))
                if n < 5:
                    sim.schedule(0.5 * (n + 1), chain, n + 1)

            sim.schedule(1.0, chain, 0)
            handle = sim.schedule(2.0, trace.append, "cancelled")
            handle.cancel()
            sim.run(until=100.0)
            return trace, sim.now, sim.events_processed

        assert drive(Simulator()) == drive(CheckedSimulator())

    def test_not_reentrant(self):
        sim = CheckedSimulator()
        sim.schedule(1.0, lambda: sim.run())
        with pytest.raises(SimulationError):
            sim.run()

    def test_counts_checks(self):
        sim = CheckedSimulator()
        for i in range(10):
            sim.schedule(float(i + 1), lambda: None)
        sim.run()
        assert sim.checks_performed >= 10

    @pytest.mark.parametrize(
        "ending", ["drain", "until", "max_events", "raising_callback", "watchdog"]
    )
    def test_checks_are_executed_events_plus_heap_scans(self, ending):
        sim = CheckedSimulator()
        sim.heap_check_interval = 3
        scans = []
        scan = sim.verify_heap

        def counted_scan():
            scans.append(sim.events_processed)
            scan()

        sim.verify_heap = counted_scan
        for i in range(10):
            sim.schedule(float(i + 1), lambda: None)
        sim.schedule(4.5, lambda: None).cancel()  # discarded, never executed
        kwargs, raised = {}, None
        if ending == "until":
            kwargs = {"until": 8.5}
        elif ending == "max_events":
            kwargs = {"max_events": 7}
        elif ending == "raising_callback":
            sim.schedule(7.5, lambda: 1 / 0)
            raised = ZeroDivisionError
        elif ending == "watchdog":
            sim.install_watchdog(SimWatchdog(WatchdogConfig(max_events=7)))
            raised = SimulationStalled
        if raised is None:
            sim.run(**kwargs)
        else:
            with pytest.raises(raised):
                sim.run(**kwargs)
        assert sim.checks_performed == sim.events_processed + len(scans)
        assert scans[:2] == [3, 6]  # one scan per heap_check_interval events
        assert (sim.events_processed < 10) == (ending != "drain")
        sim._watchdog = None
        sim.run()  # a second run() keeps counting from the first
        assert sim.checks_performed == sim.events_processed + len(scans)
        # The raising event executed (and is counted), it just did not return.
        assert sim.events_processed == 10 + (ending == "raising_callback")


def _inject_raw_event(sim, time, seq, callback=lambda: None):
    """Plant a calendar item behind the engine's back (corruption tool)."""
    heapq.heappush(sim._heap, (time, seq, callback, ()))


class TestClockInvariants:
    def test_past_event_raises_clock_monotonic(self):
        sim = CheckedSimulator()
        sim.schedule(2.0, lambda: None)
        sim.run()
        _inject_raw_event(sim, 1.0, 10**9)
        with pytest.raises(InvariantViolation) as excinfo:
            sim.run()
        assert excinfo.value.invariant == "engine.clock_monotonic"

    def test_callback_clock_tamper_detected_and_restored(self):
        sim = CheckedSimulator(report=(report := ViolationReport()))

        def tamper():
            sim._now = 99.0

        sim.schedule(1.0, tamper)
        sim.schedule(2.0, lambda: None)
        sim.run()
        assert [v.invariant for v in report.violations] == ["engine.clock_tampered"]
        # The clock was restored, so the rest of the run was unperturbed.
        assert sim.now == 2.0


class TestHeapIntegrity:
    def test_clean_heap_passes(self):
        sim = CheckedSimulator()
        for i in range(100):
            sim.schedule(float(i + 1), lambda: None)
        sim.verify_heap()  # fresh calendar
        sim.run(until=50.0)
        sim.verify_heap()  # partially drained calendar

    def test_heap_order_corruption_detected(self):
        sim = CheckedSimulator()
        for i in range(8):
            sim.schedule(float(i + 1), lambda: None)
        sim._heap[0], sim._heap[-1] = sim._heap[-1], sim._heap[0]
        with pytest.raises(InvariantViolation) as excinfo:
            sim.verify_heap()
        assert excinfo.value.invariant == "engine.heap_order"

    def test_duplicate_seq_detected(self):
        sim = CheckedSimulator()
        sim.schedule(1.0, lambda: None)
        time, seq = sim._heap[0][:2]
        _inject_raw_event(sim, time + 1.0, seq)
        with pytest.raises(InvariantViolation) as excinfo:
            sim.verify_heap()
        assert excinfo.value.invariant == "engine.heap_duplicate"

    def test_orphaned_entry_detected(self):
        # A record blanked without going through cancel(): the live
        # counter still counts it, the calendar no longer holds it.
        sim = CheckedSimulator()
        sim.schedule(1.0, lambda: None)
        sim.schedule(2.0, lambda: None)
        sim._heap[1][3]._callback = None
        with pytest.raises(InvariantViolation) as excinfo:
            sim.verify_heap()
        assert excinfo.value.invariant == "engine.heap_entry_orphan"

    def test_counter_drift_detected(self):
        sim = CheckedSimulator()
        sim.schedule(1.0, lambda: None)
        sim._cancelled_pending += 1
        with pytest.raises(InvariantViolation) as excinfo:
            sim.verify_heap()
        assert excinfo.value.invariant == "engine.heap_entry_orphan"

    def test_cancelled_records_are_accounted_not_flagged(self):
        sim = CheckedSimulator()
        handles = [sim.schedule(float(i + 1), lambda: None) for i in range(6)]
        for handle in handles[::2]:
            handle.cancel()
        sim.verify_heap()
        sim.run(until=3.5)
        sim.verify_heap()

    def test_non_callable_entry_detected(self):
        sim = CheckedSimulator()
        sim.schedule(1.0, lambda: None)
        sim._heap[0][3]._callback = "not-callable"
        with pytest.raises(InvariantViolation) as excinfo:
            sim.verify_heap()
        assert excinfo.value.invariant == "engine.entry_not_callable"

    def test_periodic_check_catches_mid_run_corruption(self):
        sim = CheckedSimulator(report=(report := ViolationReport()))
        sim.heap_check_interval = 1
        sim.schedule(1.0, lambda: _inject_raw_event(sim, 5.0, 10**9, "bogus"))
        sim.schedule(2.0, lambda: None)
        sim.run(until=3.0)  # the bogus event is detected, never executed
        assert any(
            v.invariant == "engine.entry_not_callable" for v in report.violations
        )


class TestReportingModes:
    def test_report_collects_instead_of_raising(self):
        report = ViolationReport()
        sim = CheckedSimulator(report=report)
        sim.schedule(1.0, lambda: None)
        # appended, not pushed: violates the heap property
        sim._heap.append((0.0, 10**9, lambda: None, ()))
        sim.verify_heap()
        assert not report.ok
        assert report.violations[0].invariant == "engine.heap_order"

    def test_violation_is_picklable_and_structured(self):
        import pickle

        violation = InvariantViolation(
            "engine.clock_monotonic", "simulator", "boom", 1.5, {"event_time": 1.0}
        )
        clone = pickle.loads(pickle.dumps(violation))
        assert clone.invariant == violation.invariant
        assert clone.as_dict() == violation.as_dict()
        assert isinstance(clone, AssertionError)

    def test_violations_counted_in_telemetry(self):
        with telemetry.use() as tele:
            report = ViolationReport()
            sim = CheckedSimulator(report=report)
            sim.schedule(2.0, lambda: None)
            sim.run()
            _inject_raw_event(sim, 1.0, 10**9)
            sim.run()
            assert not report.ok
            counter = tele.registry.counter(
                "simcheck.violations", invariant="engine.clock_monotonic"
            )
            assert counter.value >= 1
