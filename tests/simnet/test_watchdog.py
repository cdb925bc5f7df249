"""SimWatchdog: event/wall budgets, structured stall errors, no lost events."""

import pickle
import time

import pytest

from repro.simnet.engine import (
    WALL_CHECK_INTERVAL,
    SimulationStalled,
    Simulator,
    SimWatchdog,
    WatchdogConfig,
)


class TestWatchdogConfig:
    def test_defaults_are_unlimited(self):
        config = WatchdogConfig()
        assert config.max_events is None
        assert config.max_wall_s is None

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"max_events": 0},
            {"max_events": -5},
            {"max_wall_s": 0.0},
            {"max_wall_s": -1.0},
            {"max_wall_s": float("nan")},
        ],
    )
    def test_rejects_invalid_limits(self, kwargs):
        with pytest.raises(ValueError):
            WatchdogConfig(**kwargs)


class TestSimulationStalled:
    def test_carries_structured_fields(self):
        exc = SimulationStalled("max_events", 100, 100, 0.5, 3.25)
        assert exc.reason == "max_events"
        assert exc.limit == 100
        assert exc.events_processed == 100
        assert exc.wall_seconds == 0.5
        assert exc.sim_now == 3.25
        assert "max_events" in str(exc)

    def test_pickle_round_trip(self):
        # Stall errors cross the worker->supervisor process boundary.
        exc = SimulationStalled("max_wall_s", 2.0, 4321, 2.125, 7.5)
        clone = pickle.loads(pickle.dumps(exc))
        assert isinstance(clone, SimulationStalled)
        assert clone.reason == exc.reason
        assert clone.limit == exc.limit
        assert clone.events_processed == exc.events_processed
        assert clone.wall_seconds == exc.wall_seconds
        assert clone.sim_now == exc.sim_now


def schedule_burst(sim, count):
    fired = []
    for i in range(count):
        sim.schedule(0.001 * (i + 1), fired.append, i)
    return fired


class TestMaxEvents:
    def test_raises_at_event_budget(self):
        sim = Simulator()
        fired = schedule_burst(sim, 10)
        sim.install_watchdog(SimWatchdog(WatchdogConfig(max_events=5)))
        with pytest.raises(SimulationStalled) as excinfo:
            sim.run()
        exc = excinfo.value
        assert exc.reason == "max_events"
        assert exc.limit == 5
        assert exc.events_processed == 5
        assert len(fired) == 5

    def test_a_trip_is_counted_under_telemetry(self):
        from repro import telemetry

        sim = Simulator()
        schedule_burst(sim, 10)
        sim.install_watchdog(SimWatchdog(WatchdogConfig(max_events=5)))
        with telemetry.use() as tele, pytest.raises(SimulationStalled):
            sim.run()
        counters = tele.registry.snapshot()["counters"]
        assert counters["sim.watchdog_trips{reason=max_events}"] == 1

    def test_stall_never_discards_pending_events(self):
        # The check runs before the pop, so the interrupted event is
        # still on the calendar and a resumed run executes everything.
        sim = Simulator()
        fired = schedule_burst(sim, 10)
        sim.install_watchdog(SimWatchdog(WatchdogConfig(max_events=5)))
        with pytest.raises(SimulationStalled):
            sim.run()
        assert sim.pending_events == 5
        sim._watchdog = None
        sim.run()
        assert fired == list(range(10))
        assert sim.events_processed == 10

    def test_budget_counts_all_runs_not_per_call(self):
        sim = Simulator()
        schedule_burst(sim, 10)
        sim.install_watchdog(SimWatchdog(WatchdogConfig(max_events=8)))
        sim.run(until=0.0055)  # executes 5 events
        assert sim.events_processed == 5
        with pytest.raises(SimulationStalled):
            sim.run()  # trips 3 events later, at the cumulative budget


class TestMaxWall:
    def test_raises_on_wall_budget(self):
        sim = Simulator()

        def spin(sim):
            sim.schedule(0.001, spin, sim)

        # One slow event blows the budget; the next wall read, within
        # WALL_CHECK_INTERVAL events, trips it.
        sim.schedule(0.0005, time.sleep, 0.03)
        sim.schedule(0.001, spin, sim)
        sim.install_watchdog(SimWatchdog(WatchdogConfig(max_wall_s=0.02)))
        with pytest.raises(SimulationStalled) as excinfo:
            sim.run(until=60.0)
        exc = excinfo.value
        assert exc.reason == "max_wall_s"
        assert exc.limit == 0.02
        assert exc.wall_seconds > 0.02

    def test_wall_checked_every_interval_events(self):
        # The countdown shields the budget until WALL_CHECK_INTERVAL
        # events have run, even though the wall is long blown.
        sim = Simulator()
        watchdog = SimWatchdog(WatchdogConfig(max_wall_s=1e-9))
        sim.install_watchdog(watchdog)
        watchdog.arm()
        time.sleep(0.001)  # wall budget now exhausted
        for _ in range(WALL_CHECK_INTERVAL - 1):
            watchdog.check(sim)  # countdown not yet elapsed
        with pytest.raises(SimulationStalled):
            watchdog.check(sim)


class TestInstallRemove:
    def test_install_returns_and_exposes_watchdog(self):
        sim = Simulator()
        assert sim._watchdog is None
        watchdog = sim.install_watchdog(SimWatchdog())
        assert sim._watchdog is watchdog

    def test_arm_is_idempotent(self):
        watchdog = SimWatchdog(WatchdogConfig(max_wall_s=60.0))
        assert watchdog.wall_elapsed_s == 0.0
        watchdog.arm()
        first = watchdog._wall_started
        watchdog.arm()
        assert watchdog._wall_started == first
        assert watchdog.wall_elapsed_s >= 0.0

    def test_unlimited_watchdog_never_trips(self):
        sim = Simulator()
        fired = schedule_burst(sim, 50)
        sim.install_watchdog(SimWatchdog())
        sim.run()
        assert len(fired) == 50
