"""Tests for the discrete-event engine."""

import heapq

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.simcheck import CheckedSimulator
from repro.simnet.engine import (
    SimulationError,
    SimulationStalled,
    Simulator,
    SimWatchdog,
    WatchdogConfig,
)

from .calendar import post_at, step


class TestScheduling:
    def test_initial_time_is_zero(self):
        assert Simulator().now == 0.0

    def test_single_event_fires_at_time(self):
        sim = Simulator()
        fired = []
        sim.schedule(2.5, fired.append, "x")
        sim.run()
        assert fired == ["x"]
        assert sim.now == 2.5

    def test_events_fire_in_time_order(self):
        sim = Simulator()
        order = []
        sim.schedule(3.0, order.append, 3)
        sim.schedule(1.0, order.append, 1)
        sim.schedule(2.0, order.append, 2)
        sim.run()
        assert order == [1, 2, 3]

    def test_ties_fire_in_insertion_order(self):
        sim = Simulator()
        order = []
        for i in range(10):
            sim.schedule(1.0, order.append, i)
        sim.run()
        assert order == list(range(10))

    def test_schedule_at_absolute_time(self):
        sim = Simulator()
        fired = []
        sim.schedule_at(5.0, fired.append, "a")
        sim.run()
        assert sim.now == 5.0 and fired == ["a"]

    def test_negative_delay_rejected(self):
        with pytest.raises(SimulationError):
            Simulator().schedule(-0.1, lambda: None)

    def test_schedule_in_past_rejected(self):
        sim = Simulator()
        sim.schedule(1.0, lambda: None)
        sim.run()
        with pytest.raises(SimulationError):
            sim.schedule_at(0.5, lambda: None)

    def test_nan_time_rejected(self):
        with pytest.raises(SimulationError):
            Simulator().schedule_at(float("nan"), lambda: None)
        with pytest.raises(SimulationError, match="cannot schedule at NaN time"):
            Simulator().schedule(float("nan"), lambda: None)

    def test_nan_until_rejected(self):
        # ``time > nan`` is never true, so run(until=nan) would execute
        # the whole calendar -- forever, under a periodic timer.
        sim = Simulator()
        fired = []
        sim.schedule_at(1.0, fired.append, "a")
        with pytest.raises(SimulationError):
            sim.run(until=float("nan"))
        assert fired == [] and sim.now == 0.0
        sim.run(until=2.0)  # the rejected call left the engine usable
        assert fired == ["a"]

    def test_events_scheduled_during_run_fire(self):
        sim = Simulator()
        fired = []

        def chain(n):
            fired.append(n)
            if n < 3:
                sim.schedule(1.0, chain, n + 1)

        sim.schedule(1.0, chain, 0)
        sim.run()
        assert fired == [0, 1, 2, 3]
        assert sim.now == 4.0


class TestRunControl:
    def test_run_until_stops_and_advances_clock(self):
        sim = Simulator()
        fired = []
        sim.schedule(1.0, fired.append, 1)
        sim.schedule(10.0, fired.append, 10)
        sim.run(until=5.0)
        assert fired == [1]
        assert sim.now == 5.0
        sim.run()
        assert fired == [1, 10]

    def test_run_max_events(self):
        sim = Simulator()
        fired = []
        for i in range(5):
            sim.schedule(i + 1.0, fired.append, i)
        sim.run(max_events=2)
        assert fired == [0, 1]

    def test_step_returns_false_when_empty(self):
        assert step(Simulator()) is False

    def test_events_processed_counter(self):
        sim = Simulator()
        for i in range(4):
            sim.schedule(i + 1.0, lambda: None)
        sim.run()
        assert sim.events_processed == 4

    def test_run_is_not_reentrant(self):
        sim = Simulator()
        errors = []

        def nested():
            try:
                sim.run()
            except SimulationError as exc:
                errors.append(exc)

        sim.schedule(1.0, nested)
        sim.run()
        assert len(errors) == 1


class TestClockChecks:
    """The plain engine raises where the checked one reports."""

    def test_callback_moving_the_clock_raises(self):
        sim = Simulator()

        def tamper():
            sim._now = 99.0

        sim.schedule(1.0, tamper)
        sim.schedule(2.0, lambda: None)
        with pytest.raises(SimulationError, match="moved the clock from 1.0 to 99.0"):
            sim.run()

    def test_record_planted_in_the_past_raises(self):
        sim = Simulator()
        fired = []
        sim.schedule(2.0, lambda: None)
        sim.run()
        heapq.heappush(sim._heap, (1.0, 10**9, fired.append, ("planted",)))
        with pytest.raises(SimulationError, match="fires at 1.0 < now 2.0"):
            sim.run()
        # The record was consumed, not executed, and the clock did not move.
        assert fired == [] and sim.pending_events == 0
        assert sim.now == 2.0 and sim.events_processed == 1


@pytest.mark.parametrize("engine", [Simulator, CheckedSimulator])
class TestStepIsRunOfOne:
    @staticmethod
    def _drive(sim, advance):
        fired = []
        timers = [sim.schedule(t, fired.append, t) for t in (1.0, 2.0, 2.0, 3.0)]
        post_at(sim, 2.0, fired.append, "posted")
        timers[0].cancel()  # a cancelled head
        timers[2].cancel()
        advanced = [advance(sim) for _ in range(5)]
        return (advanced, fired, sim.now, sim.events_processed, sim.pending_events,
                getattr(sim, "checks_performed", None))

    def test_one_event_at_a_time_skips_cancelled_heads(self, engine):
        stepped = self._drive(engine(), step)
        assert stepped[:2] == ([True, True, True, False, False], [2.0, "posted", 3.0])

    def test_one_event_at_a_time_ends_where_one_run_ends(self, engine):
        def run_all(sim):
            before = sim.events_processed
            sim.run()
            return sim.events_processed > before

        stepped = self._drive(engine(), step)
        whole = self._drive(engine(), run_all)
        assert whole[0] == [True, False, False, False, False]
        assert stepped[1:] == whole[1:]

    def test_step_honours_the_watchdog(self, engine):
        sim = engine()
        sim.schedule(1.0, lambda: None)
        sim.schedule(2.0, lambda: None)
        sim.install_watchdog(SimWatchdog(WatchdogConfig(max_events=1)))
        assert step(sim)
        with pytest.raises(SimulationStalled):
            step(sim)
        assert sim.pending_events == 1  # the interrupted event stays queued

    def test_step_is_not_reentrant(self, engine):
        sim = engine()
        sim.schedule(1.0, step, sim)
        sim.schedule(2.0, lambda: None)
        with pytest.raises(SimulationError, match="not reentrant"):
            sim.run()


class TestCancellation:
    def test_cancelled_event_does_not_fire(self):
        sim = Simulator()
        fired = []
        handle = sim.schedule(1.0, fired.append, "no")
        handle.cancel()
        sim.run()
        assert fired == []

    def test_cancel_is_idempotent(self):
        sim = Simulator()
        handle = sim.schedule(1.0, lambda: None)
        handle.cancel()
        handle.cancel()
        assert handle.cancelled

    def test_pending_events_excludes_cancelled(self):
        sim = Simulator()
        keep = sim.schedule(1.0, lambda: None)
        drop = sim.schedule(2.0, lambda: None)
        drop.cancel()
        assert sim.pending_events == 1

    def test_peek_time_skips_cancelled(self):
        sim = Simulator()
        first = sim.schedule(1.0, lambda: None)
        sim.schedule(2.0, lambda: None)
        first.cancel()
        assert sim.peek_time() == 2.0


class TestPropertyBased:
    @given(st.lists(st.floats(min_value=0.0, max_value=1e6), min_size=1, max_size=50))
    @settings(max_examples=50)
    def test_arbitrary_delays_fire_sorted(self, delays):
        sim = Simulator()
        fired = []
        for delay in delays:
            sim.schedule(delay, lambda d=delay: fired.append(d))
        sim.run()
        assert fired == sorted(fired)
        assert len(fired) == len(delays)

    @given(
        st.lists(
            st.tuples(st.floats(min_value=0, max_value=100), st.booleans()),
            min_size=1,
            max_size=40,
        )
    )
    @settings(max_examples=50)
    def test_cancellation_subset_fires(self, entries):
        sim = Simulator()
        fired = []
        expected = []
        for i, (delay, cancel) in enumerate(entries):
            handle = sim.schedule(delay, fired.append, i)
            if cancel:
                handle.cancel()
            else:
                expected.append(i)
        sim.run()
        assert sorted(fired) == sorted(expected)
