"""Discrete-event simulation engine.

This is the core substrate that stands in for ns-2 in the paper's
evaluation: a single-threaded event loop with a binary-heap calendar.
Everything else in :mod:`repro.simnet` (links, queues, transport agents,
workload sources) schedules callbacks on a :class:`Simulator`.

Events fire in non-decreasing time order; ties are broken by insertion
order so the simulation is fully deterministic for a fixed seed.

The calendar holds one tuple per event, in one of two shapes that share
the ``(time, seq)`` prefix the heap orders on (sequence numbers are
unique, so tuple comparison never reaches the third slot and heap
operations stay in C):

- ``(time, seq, callback, args)`` — pushed inline by
  :class:`~repro.simnet.link.Link`, the only writer.  Nothing refers to
  the record, so it cannot be cancelled and costs no allocation beyond
  the tuple.  For per-packet events, which are never cancelled.
- ``(time, seq, None, handle)`` — scheduled with :meth:`Simulator.schedule`
  / :meth:`Simulator.schedule_at`, which return the
  :class:`EventHandle`.  The handle holds the callback; cancelling blanks
  it there, and the loop discards the record when it surfaces.  For
  timers (RTO, fault windows, sources).

:attr:`Simulator.pending_events` is the heap size minus a live count of
cancelled records rather than an O(n) scan.
"""

from __future__ import annotations

import heapq
import itertools
import math
import time as _time
from dataclasses import dataclass
from functools import partial
from typing import Any, Callable, List, Optional

from ..telemetry import session as _telemetry_session
from . import packet as _packet
from .bounds import check


class SimulationError(Exception):
    """Raised for invalid uses of the simulation engine."""


class SimulationStalled(SimulationError):
    """A watchdog limit fired: the simulation is presumed runaway.

    Structured so a supervisor (see :mod:`repro.runner.resilience`) can
    decide whether to retry or quarantine the work item.  ``reason`` is
    ``"max_events"`` or ``"max_wall_s"``; the remaining fields snapshot
    the simulation at the moment the watchdog tripped.
    """

    def __init__(
        self,
        reason: str,
        limit: float,
        events_processed: int,
        wall_seconds: float,
        sim_now: float,
    ) -> None:
        super().__init__(
            f"simulation stalled ({reason} limit {limit} hit after "
            f"{events_processed} events, {wall_seconds:.3f}s wall, "
            f"sim time {sim_now:.6f}s)"
        )
        self.reason = reason
        self.limit = limit
        self.events_processed = events_processed
        self.wall_seconds = wall_seconds
        self.sim_now = sim_now

    def __reduce__(self):
        # Watchdog errors cross process boundaries (worker -> supervisor),
        # so pickling must rebuild via our five-argument constructor, not
        # the single-message Exception default.
        return (
            type(self),
            (
                self.reason,
                self.limit,
                self.events_processed,
                self.wall_seconds,
                self.sim_now,
            ),
        )


#: Events between the watchdog's wall-clock reads; the event budget is
#: checked on every event.  Keeps the per-event cost to integer compares.
WALL_CHECK_INTERVAL = 1024


#: A run's simulated length: positive and finite (an infinite run never ends).
check_duration = partial(check, "duration_s", gt=0)


@dataclass(frozen=True)
class WatchdogConfig:
    """Limits for one simulation, enforced by :class:`SimWatchdog`.

    Attributes
    ----------
    max_events:
        Cumulative event budget for the simulation (``None`` = unlimited).
    max_wall_s:
        Wall-clock budget, measured from the first ``run()`` after the
        watchdog is installed (``None`` = unlimited), read every
        :data:`WALL_CHECK_INTERVAL` events.
    """

    max_events: Optional[int] = None
    max_wall_s: Optional[float] = None

    def __post_init__(self) -> None:
        if self.max_events is not None:
            check("max_events", self.max_events, ge=1, integer=True)
        if self.max_wall_s is not None:
            check("max_wall_s", self.max_wall_s, gt=0)


class SimWatchdog:
    """Opt-in runaway-simulation guard for :class:`Simulator`.

    Installed via :meth:`Simulator.install_watchdog`; the engine then
    calls :meth:`check` once per executed event and raises
    :class:`SimulationStalled` when either budget is exhausted.  When no
    watchdog is installed the engine pays a single ``is None`` test per
    event.
    """

    __slots__ = ("config", "_wall_started", "_wall_countdown")

    def __init__(self, config: Optional[WatchdogConfig] = None) -> None:
        self.config = config or WatchdogConfig()
        self._wall_started: Optional[float] = None
        self._wall_countdown = WALL_CHECK_INTERVAL

    def arm(self) -> None:
        """Start the wall clock (idempotent; first ``run()`` calls this)."""
        if self._wall_started is None:
            self._wall_started = _time.perf_counter()

    @property
    def wall_elapsed_s(self) -> float:
        """Wall seconds since the watchdog was armed (0 before arming)."""
        if self._wall_started is None:
            return 0.0
        return _time.perf_counter() - self._wall_started

    def check(self, sim: "Simulator") -> None:
        """Raise :class:`SimulationStalled` if a budget is exhausted."""
        cfg = self.config
        if cfg.max_events is not None and sim.events_processed >= cfg.max_events:
            self._record_trip("max_events", sim)
            raise SimulationStalled(
                "max_events",
                cfg.max_events,
                sim.events_processed,
                self.wall_elapsed_s,
                sim.now,
            )
        if cfg.max_wall_s is not None:
            self._wall_countdown -= 1
            if self._wall_countdown <= 0:
                self._wall_countdown = WALL_CHECK_INTERVAL
                elapsed = self.wall_elapsed_s
                if elapsed > cfg.max_wall_s:
                    self._record_trip("max_wall_s", sim)
                    raise SimulationStalled(
                        "max_wall_s",
                        cfg.max_wall_s,
                        sim.events_processed,
                        elapsed,
                        sim.now,
                    )

    def _record_trip(self, reason: str, sim: "Simulator") -> None:
        tele = _telemetry_session()
        if tele.enabled:
            tele.registry.counter("sim.watchdog_trips", reason=reason).inc()
        # A tripped watchdog is an anomaly: record it (so a recorder
        # without an autodump path still holds it) and snapshot the
        # rings before SimulationStalled unwinds the stack.
        rec = tele.flightrec
        if rec.enabled:
            rec.fault(
                "watchdog_trip", sim.now, reason,
                detail={"events_processed": sim.events_processed},
            )
        rec.maybe_autodump(f"watchdog:{reason}", sim_time=sim.now)


class EventHandle:
    """Handle returned by :meth:`Simulator.schedule`; supports cancellation.

    The calendar record ``(time, seq, None, handle)`` points here for its
    callback.  ``_sim`` is the "still pending" mark — the engine clears it
    when the event fires; :meth:`cancel` clears the callback with it.
    """

    __slots__ = ("time", "_callback", "_args", "_sim")

    def __init__(
        self, time: float, callback: Callable[..., None], args: tuple, sim: "Simulator"
    ) -> None:
        #: Scheduled firing time of the event (readable after it fired).
        self.time = time
        self._callback: Optional[Callable[..., None]] = callback
        self._args: Optional[tuple] = args
        self._sim: Optional["Simulator"] = sim

    @property
    def cancelled(self) -> bool:
        """Whether :meth:`cancel` prevented this event from firing."""
        return self._callback is None

    def cancel(self) -> None:
        """Prevent the event from firing.

        Cancelling an event that already fired or was already cancelled
        is a no-op.  The engine lazily discards the record when it
        surfaces at the top of the calendar.
        """
        sim = self._sim
        if sim is not None:
            self._callback = self._args = self._sim = None
            sim._cancelled_pending += 1


class Simulator:
    """A deterministic discrete-event simulator.

    Example
    -------
    >>> sim = Simulator()
    >>> fired = []
    >>> _ = sim.schedule(1.5, fired.append, "hello")
    >>> sim.run()
    >>> (sim.now, fired)
    (1.5, ['hello'])
    """

    def __init__(self) -> None:
        self._now = 0.0
        self._heap: List[tuple] = []
        #: Cancelled records still sitting in the heap.
        self._cancelled_pending = 0
        self._seq = itertools.count()
        self._running = False
        self._events_processed = 0
        self._watchdog: Optional[SimWatchdog] = None
        # Flight-recorder records carry packet ids, so a run numbers its
        # packets from 1 whatever the process simulated before.
        _packet._packet_ids = itertools.count(1)

    @property
    def now(self) -> float:
        """Current simulation time in seconds."""
        return self._now

    @property
    def events_processed(self) -> int:
        """Number of events executed so far."""
        return self._events_processed

    @property
    def pending_events(self) -> int:
        """Number of queued live (non-cancelled) events."""
        return len(self._heap) - self._cancelled_pending

    def install_watchdog(self, watchdog: SimWatchdog) -> SimWatchdog:
        """Guard subsequent ``run()`` calls with ``watchdog``."""
        self._watchdog = watchdog
        return watchdog

    def schedule(
        self,
        delay: float,
        callback: Callable[..., None],
        *args: Any,
    ) -> EventHandle:
        """Schedule ``callback(*args)`` to run ``delay`` seconds from now."""
        # ``not >=`` rather than ``<`` so a NaN delay is rejected here too.
        if not delay >= 0:
            if delay < 0:
                raise SimulationError(f"cannot schedule in the past (delay={delay})")
            raise SimulationError("cannot schedule at NaN time")
        time = self._now + delay
        handle = EventHandle(time, callback, args, self)
        heapq.heappush(self._heap, (time, next(self._seq), None, handle))
        return handle

    def schedule_at(
        self,
        time: float,
        callback: Callable[..., None],
        *args: Any,
    ) -> EventHandle:
        """Schedule ``callback(*args)`` at absolute simulation ``time``."""
        if not time >= self._now:
            raise self._not_schedulable(time)
        handle = EventHandle(time, callback, args, self)
        heapq.heappush(self._heap, (time, next(self._seq), None, handle))
        return handle

    def _not_schedulable(self, time: float) -> SimulationError:
        # ``not >=`` at the call sites rather than ``<`` so NaN lands here too.
        if math.isnan(time):
            return SimulationError("cannot schedule at NaN time")
        return SimulationError(
            f"cannot schedule at {time} which is before now={self._now}"
        )

    def peek_time(self) -> Optional[float]:
        """Time of the next non-cancelled event, or None if the calendar is empty."""
        heap = self._heap
        while heap:
            time, _, callback, args = heap[0]
            if callback is not None or args._callback is not None:
                return time
            heapq.heappop(heap)  # a cancelled timer; discard it
            self._cancelled_pending -= 1
        return None

    def run(self, until: Optional[float] = None, max_events: Optional[int] = None) -> None:
        """Run events until the calendar drains, ``until`` passes, or
        ``max_events`` events have executed in this call.

        When the calendar is exhausted up to ``until``, the clock advances
        to ``until`` so a subsequent ``run`` resumes from there.  When the
        loop stops early on ``max_events`` with events still pending at or
        before ``until``, the clock stays at the last executed event so
        those events remain schedulable in the future.
        """
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
        # ``executed`` is >= 1 where it is compared, so 0 never audits.
        next_audit = interval or 0
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
                    self._clock_regressed(seq, time)
                self._now = time
                self._events_processed += 1
                executed += 1
                callback(*args)
                if self._now != time:
                    self._clock_tampered(time)
                if executed == next_audit:
                    next_audit += interval
                    self._audit_heap()
            self._audit_heap()
        finally:
            self._running = False
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

    # ------------------------------------------------------------------
    # The run loop's three check sites.  The plain engine raises on the
    # two clock checks and never audits the calendar;
    # repro.simcheck.CheckedSimulator answers each its own way.
    # ------------------------------------------------------------------
    #: Executed events between calendar audits (None: never audit).
    heap_check_interval: Optional[int] = None

    def _clock_regressed(self, seq: int, time: float) -> None:
        """Before the clock moves: the popped record is due in the past."""
        raise SimulationError(f"event seq {seq} fires at {time} < now {self._now}")

    def _clock_tampered(self, time: float) -> None:
        """After the callback returns: it moved the clock off ``time``."""
        raise SimulationError(f"callback moved the clock from {time} to {self._now}")

    def _audit_heap(self) -> None:
        """Every ``heap_check_interval`` executed events and once when the
        loop exits normally: audit the calendar (nothing to do here)."""
