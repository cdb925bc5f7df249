"""Regression and behaviour tests for the event core's hot path.

Covers the ``run(until=..., max_events=...)`` clock bug (the loop used
to fast-forward ``now`` to ``until`` even when it stopped early on
``max_events``, stranding still-pending events in the past), tie-break
ordering, O(1) pending-event accounting, and what a handle means after
its event fired or the calendar was cleared.

The calendar holds two record shapes — ``schedule_at`` makes a timer with
a handle, ``post_at`` a bare record — so the ordering and run-limit
classes run three times: all timers, all posted, and the two by turns,
where only insertion order may decide a tie.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.simnet.engine import SimulationError, Simulator


class TestMaxEventsClockRegression:
    def place(self, sim, time, callback, *args):
        sim.schedule_at(time, callback, *args)

    def test_clock_not_fast_forwarded_past_pending_events(self):
        # The original bug: stopping on max_events jumped now to until,
        # stranding the events at t=2 and t=3 in the past.
        sim = Simulator()
        fired = []
        for t in (1.0, 2.0, 3.0):
            self.place(sim, t, fired.append, t)
        sim.run(until=10.0, max_events=1)
        assert fired == [1.0]
        assert sim.now == 1.0

    def test_schedule_after_early_stop_does_not_raise(self):
        sim = Simulator()
        self.place(sim, 1.0, lambda: None)
        self.place(sim, 2.0, lambda: None)
        sim.run(until=10.0, max_events=1)
        # With the clock stuck at 10.0 this used to raise SimulationError.
        self.place(sim, 1.5, lambda: None)

    def test_resumed_run_fires_stranded_events_in_order(self):
        sim = Simulator()
        fired = []
        for t in (1.0, 2.0, 3.0):
            self.place(sim, t, fired.append, t)
        sim.run(until=10.0, max_events=1)
        sim.run(until=10.0)
        assert fired == [1.0, 2.0, 3.0]
        assert sim.now == 10.0

    def test_clock_advances_when_calendar_exhausted_up_to_until(self):
        # Stopping on max_events with the only remaining event beyond
        # until still counts as exhausted up to until.
        sim = Simulator()
        self.place(sim, 1.0, lambda: None)
        self.place(sim, 50.0, lambda: None)
        sim.run(until=10.0, max_events=1)
        assert sim.now == 10.0

    def test_clock_advances_to_until_when_calendar_empty(self):
        sim = Simulator()
        self.place(sim, 1.0, lambda: None)
        sim.run(until=10.0)
        assert sim.now == 10.0

    def test_max_events_without_until_leaves_clock_at_last_event(self):
        sim = Simulator()
        for t in (1.0, 2.0, 3.0):
            self.place(sim, t, lambda: None)
        sim.run(max_events=2)
        assert sim.now == 2.0
        assert sim.pending_events == 1


class _Posted:
    def place(self, sim, time, callback, *args):
        sim.post_at(time, callback, *args)


class _ByTurns:
    turn = 0

    def place(self, sim, time, callback, *args):
        self.turn += 1
        post = sim.post_at if self.turn % 2 else sim.schedule_at
        post(time, callback, *args)


class TestMaxEventsClockRegressionPosted(_Posted, TestMaxEventsClockRegression):
    pass


class TestMaxEventsClockRegressionByTurns(_ByTurns, TestMaxEventsClockRegression):
    pass


class _TieOrderCases:
    def place(self, sim, time, callback, *args):
        sim.schedule_at(time, callback, *args)

    def test_ties_fire_in_insertion_order_with_interleaved_times(self):
        sim = Simulator()
        order = []
        # Schedule two tie groups out of time order; within each group
        # insertion order must be preserved.
        for i in range(5):
            self.place(sim, 2.0, order.append, ("late", i))
        for i in range(5):
            self.place(sim, 1.0, order.append, ("early", i))
        sim.run()
        assert order == [("early", i) for i in range(5)] + [
            ("late", i) for i in range(5)
        ]

    def test_ties_survive_cancellation_gaps(self):
        sim = Simulator()
        order = []
        for i in range(8):
            if i in (0, 3, 7):  # only a timer can be cancelled
                sim.schedule_at(1.0, order.append, i).cancel()
            else:
                self.place(sim, 1.0, order.append, i)
        sim.run()
        assert order == [1, 2, 4, 5, 6]

    def test_events_scheduled_mid_tie_fire_after_existing_ties(self):
        sim = Simulator()
        order = []

        def spawn():
            order.append("first")
            self.place(sim, 1.0, order.append, "spawned")

        self.place(sim, 1.0, spawn)
        self.place(sim, 1.0, order.append, "second")
        sim.run()
        assert order == ["first", "second", "spawned"]


class TestTupleHeapOrdering(_TieOrderCases):
    @given(
        st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=5),
                st.sampled_from(["timer", "cancelled timer", "posted"]),
            ),
            min_size=1,
            max_size=60,
        )
    )
    @settings(max_examples=100)
    def test_fire_order_is_time_then_insertion(self, entries):
        sim = Simulator()
        fired = []
        expected = []
        for index, (time_slot, kind) in enumerate(entries):
            if kind == "posted":
                sim.post_at(float(time_slot), fired.append, index)
            else:
                handle = sim.schedule_at(float(time_slot), fired.append, index)
            if kind == "cancelled timer":
                handle.cancel()
            else:
                expected.append((float(time_slot), index))
        assert sim.pending_events == len(expected)
        sim.run()
        expected.sort()  # stable: (time, insertion index)
        assert fired == [index for _, index in expected]
        assert sim.events_processed == len(expected)


class TestTupleHeapOrderingPosted(_Posted, _TieOrderCases):
    pass


class TestTupleHeapOrderingByTurns(_ByTurns, _TieOrderCases):
    pass


class TestPostAt:
    def test_rejects_what_schedule_at_rejects_with_its_errors(self):
        sim = Simulator()
        sim.schedule_at(2.0, lambda: None)
        sim.run()
        for bad in (float("nan"), 1.0, -1.0):
            with pytest.raises(SimulationError) as scheduled:
                sim.schedule_at(bad, lambda: None)
            with pytest.raises(SimulationError) as posted:
                sim.post_at(bad, lambda: None)
            assert str(posted.value) == str(scheduled.value)
        assert sim.pending_events == 0
        sim.post_at(2.0, lambda: None)  # now itself is schedulable
        assert sim.pending_events == 1

    def test_returns_nothing_and_is_counted_like_a_timer(self):
        sim = Simulator()
        fired = []
        assert sim.post_at(1.0, fired.append, "posted") is None
        sim.schedule_at(1.0, fired.append, "timer")
        assert sim.pending_events == 2 and sim.peek_time() == 1.0
        assert sim.step() and sim.step() and not sim.step()
        assert fired == ["posted", "timer"]
        assert sim.events_processed == 2

    def test_clear_drops_both_shapes(self):
        sim = Simulator()
        fired = []
        sim.post_at(1.0, fired.append, "posted")
        timer = sim.schedule_at(1.0, fired.append, "timer")
        sim.clear()
        timer.cancel()  # stale: must not count
        assert sim.pending_events == 0 and sim.peek_time() is None
        sim.run()
        assert fired == []


class TestPendingAccounting:
    def test_pending_events_counts_live_events(self):
        sim = Simulator()
        handles = [sim.schedule(float(i + 1), lambda: None) for i in range(10)]
        assert sim.pending_events == 10
        for handle in handles[:4]:
            handle.cancel()
        assert sim.pending_events == 6

    def test_cancel_is_o1_and_idempotent(self):
        sim = Simulator()
        handle = sim.schedule(1.0, lambda: None)
        handle.cancel()
        handle.cancel()
        assert sim.pending_events == 0
        assert handle.cancelled

    def test_cancel_after_fire_is_noop(self):
        sim = Simulator()
        fired = []
        handle = sim.schedule(1.0, fired.append, "x")
        sim.run()
        handle.cancel()  # must not corrupt pending accounting
        assert fired == ["x"]
        assert sim.pending_events == 0

    def test_pending_drops_as_events_fire(self):
        sim = Simulator()
        for i in range(5):
            sim.schedule(float(i + 1), lambda: None)
        sim.run(max_events=2)
        assert sim.pending_events == 3

    def test_clear_resets_pending(self):
        sim = Simulator()
        sim.schedule(1.0, lambda: None)
        sim.schedule(2.0, lambda: None)
        sim.clear()
        assert sim.pending_events == 0
        assert sim.peek_time() is None

    def test_step_skips_cancelled_head(self):
        sim = Simulator()
        fired = []
        first = sim.schedule(1.0, fired.append, "a")
        sim.schedule(2.0, fired.append, "b")
        first.cancel()
        assert sim.step() is True
        assert fired == ["b"]
        assert sim.now == 2.0


class TestHandleSemantics:
    """``cancelled`` means "cancel() prevented a fire", nothing else."""

    def test_cancel_after_fire_changes_nothing(self):
        sim = Simulator()
        fired = []
        handle = sim.schedule(1.5, fired.append, "x")
        sim.schedule(3.0, fired.append, "y")
        sim.run(until=2.0)
        handle.cancel()
        assert not handle.cancelled
        assert handle.time == 1.5
        assert sim.pending_events == 1
        sim.run()
        assert fired == ["x", "y"]
        assert sim.pending_events == 0

    def test_cancelled_only_when_cancel_prevented_the_fire(self):
        sim = Simulator()
        kept = sim.schedule(1.0, lambda: None)
        dropped = sim.schedule(1.0, lambda: None)
        assert not kept.cancelled and not dropped.cancelled
        dropped.cancel()
        sim.run()
        assert dropped.cancelled
        assert not kept.cancelled
        assert dropped.time == 1.0

    def test_cancelling_itself_from_its_own_callback_is_a_noop(self):
        sim = Simulator()
        handles = []
        handles.append(sim.schedule(1.0, lambda: handles[0].cancel()))
        sim.schedule(2.0, lambda: None)
        sim.run(max_events=1)
        assert not handles[0].cancelled
        assert sim.pending_events == 1

    def test_cancel_after_clear_is_a_noop(self):
        sim = Simulator()
        stale = [sim.schedule(float(i + 1), lambda: None) for i in range(3)]
        stale[0].cancel()
        sim.clear()
        assert sim.pending_events == 0
        for handle in stale:
            handle.cancel()
        assert sim.pending_events == 0  # never negative
        assert [h.cancelled for h in stale] == [True, False, False]
        fresh = sim.schedule(1.0, lambda: None)
        assert sim.pending_events == 1
        fresh.cancel()
        assert sim.pending_events == 0

    def test_step_fired_handle_ignores_cancel(self):
        sim = Simulator()
        handle = sim.schedule(1.0, lambda: None)
        sim.schedule(2.0, lambda: None)
        assert sim.step()
        handle.cancel()
        assert not handle.cancelled
        assert sim.pending_events == 1


class TestRunSemanticsPreserved:
    def test_until_restores_not_yet_due_event(self):
        # An event beyond until stays in the calendar untouched,
        # including for a later cancel.
        sim = Simulator()
        fired = []
        handle = sim.schedule_at(5.0, fired.append, "late")
        sim.run(until=1.0)
        assert sim.now == 1.0
        assert sim.pending_events == 1
        handle.cancel()
        sim.run()
        assert fired == []

    def test_cancelled_timer_surfacing_beyond_until_is_discarded_quietly(self):
        # The cancelled record is the earliest thing left and lies beyond
        # until: the loop may drop it, but it neither fires nor moves the
        # clock, and the calendar's answers are the same before and after.
        sim = Simulator()
        fired = []
        sim.post_at(1.0, fired.append, "due")
        sim.schedule_at(5.0, fired.append, "cancelled").cancel()
        sim.post_at(6.0, fired.append, "later")
        before = (sim.pending_events, sim.peek_time())
        assert before == (2, 1.0)
        sim.run(until=2.0)
        assert fired == ["due"]
        assert sim.now == 2.0 and sim.events_processed == 1
        assert (sim.pending_events, sim.peek_time()) == (1, 6.0)
        sim.run(until=5.5)
        assert fired == ["due"]
        assert sim.now == 5.5 and sim.events_processed == 1
        assert (sim.pending_events, sim.peek_time()) == (1, 6.0)
        sim.run()
        assert fired == ["due", "later"] and sim.now == 6.0

    def test_exception_in_callback_leaves_engine_usable(self):
        sim = Simulator()

        def boom():
            raise RuntimeError("boom")

        sim.schedule(1.0, boom)
        sim.schedule(2.0, lambda: None)
        with pytest.raises(RuntimeError):
            sim.run()
        # The engine must not be stuck in the "running" state.
        sim.run()
        assert sim.pending_events == 0
