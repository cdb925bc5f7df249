"""Fault-tolerant execution for the sweep runner.

PR 3's pool loop trusted its workers: one worker death raised
``BrokenProcessPool`` out of the whole sweep, a stuck simulation hung it
forever, and a point whose evaluation raised took every other point down
with it.  This module puts a supervisor between the runner and the pool:

- **Crash detection** — ``BrokenProcessPool`` (a worker died without
  cleanup) and per-future exceptions are caught per point, never
  propagated sweep-wide.
- **Blame assignment** — when the pool breaks, only points that were
  *observed running* at the breakage are charged an attempt; queued
  points are re-submitted for free.  (The stdlib fails every outstanding
  future on a break, innocent or not.)
- **Timeouts** — an optional per-point wall budget, measured from when
  the point is first observed running.  Overdue points get the pool's
  workers killed (a hung worker cannot be cancelled), are charged a
  timeout, and everything else is requeued for free.
- **Budgeted retries** — failed points retry with exponential backoff
  (:func:`exponential_backoff_s`, capped by a total backoff budget).
- **Quarantine** — a point that exhausts its attempts or budget lands in
  a reported "poisoned" list with its full failure history; the sweep
  completes with the surviving points instead of aborting.
- **Serial fallback** — if the pool breaks repeatedly without making any
  progress, the supervisor degrades to in-process execution for the
  remaining points (same retry/quarantine rules; crash-style faults are
  worker-only by construction).

The supervisor never touches results: successes flow through a
``deliver(index, result)`` callback the runner owns, which preserves the
deterministic by-index merge that makes parallel sweeps bit-identical
to serial ones.
"""

from __future__ import annotations

import multiprocessing
import time
from collections import deque
from concurrent.futures import FIRST_COMPLETED, Future, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field
from functools import partial
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from ..simnet.bounds import check
from ..simnet.engine import SimulationStalled
from ..telemetry import session as _telemetry_session
from .records import PointResult


#: Retry ``k`` (0-based) of a failed point waits ``min(base *
#: multiplier**k, max)`` (:func:`exponential_backoff_s`): long enough
#: for a respawned worker, short next to a point's run.
RETRY_BACKOFF_BASE_S = 0.05
RETRY_BACKOFF_MULTIPLIER = 2.0
RETRY_BACKOFF_MAX_S = 2.0
#: A point whose cumulative backoff would exceed this is quarantined
#: instead of retried — the sweep's analogue of the channel's hard
#: deadline.
RETRY_BACKOFF_BUDGET_S = 30.0


def exponential_backoff_s(base_s: float, multiplier: float, max_s: float, k: int) -> float:
    """The wait after the ``k``-th consecutive failure (0-based):
    ``min(max_s, base_s * multiplier**k)``."""
    return min(max_s, base_s * multiplier ** k)


#: Consecutive pool breakages *without an intervening success* tolerated
#: before degrading to in-process serial execution.
POOL_BREAKS_BEFORE_FALLBACK = 3
#: The supervisor's tick: how often it wakes to stamp newly running
#: futures, check timeouts, and resubmit backed-off points.
POLL_INTERVAL_S = 0.05


#: Worker processes a sweep may use.
check_workers = partial(check, "n_workers", ge=1, integer=True)


@dataclass(frozen=True)
class ResilienceConfig:
    """Supervisor knobs.

    Attributes
    ----------
    max_attempts:
        Attempts a point gets before it is quarantined (``--retries``).
    point_timeout_s:
        Wall budget per running point (None disables the timeout).
    """

    max_attempts: int = 3
    point_timeout_s: Optional[float] = None

    def __post_init__(self) -> None:
        check("max_attempts", self.max_attempts, ge=1, integer=True)
        if self.point_timeout_s is not None:
            check("point_timeout_s", self.point_timeout_s, gt=0)


@dataclass(frozen=True)
class PointFailure:
    """One failed attempt at one point."""

    kind: str  # "crash" | "timeout" | "stalled" | "exception"
    message: str
    attempt: int


@dataclass(frozen=True)
class QuarantinedPoint:
    """A point given up on, with its full failure history."""

    index: int
    point: "object"  # SweepPoint; untyped to avoid an import cycle
    attempts: int
    failures: Tuple[PointFailure, ...]

    @property
    def last_failure(self) -> PointFailure:
        return self.failures[-1]

    def describe(self) -> str:
        last = self.last_failure
        return (
            f"point #{self.index} ({self.point.params}, seed={self.point.seed}) "
            f"quarantined after {self.attempts} attempt(s): "
            f"{last.kind}: {last.message}"
        )


@dataclass
class ExecutionReport:
    """What the supervisor did beyond plain successes."""

    retries: int = 0
    pool_rebuilds: int = 0
    serial_fallback: bool = False
    #: Whether :meth:`SweepSupervisor.execute` chose the worker pool.
    pooled: bool = False
    quarantined: List[QuarantinedPoint] = field(default_factory=list)
    #: Every failed attempt keyed by task index — including points that
    #: later succeeded, which ``quarantined`` alone cannot show.  This is
    #: the per-point retry provenance run manifests report.
    failure_history: Dict[int, List[PointFailure]] = field(default_factory=dict)

    @property
    def quarantined_count(self) -> int:
        return len(self.quarantined)


def _classify(exc: BaseException) -> str:
    if isinstance(exc, SimulationStalled):
        return "stalled"
    return "exception"


class _Slot:
    """Mutable per-point supervision state."""

    __slots__ = (
        "index", "point", "attempts", "backoff_spent",
        "eligible_at", "started_at", "submit_seq", "failures",
    )

    def __init__(self, index: int, point) -> None:
        self.index = index
        self.point = point
        self.attempts = 0
        self.backoff_spent = 0.0
        self.eligible_at = 0.0
        self.started_at: Optional[float] = None
        self.submit_seq = -1
        self.failures: List[PointFailure] = []


Deliver = Callable[[int, PointResult], None]
OnEvent = Callable[[], None]


class SweepSupervisor:
    """Drives pending points to completion or quarantine.

    Parameters
    ----------
    spec:
        The :class:`~repro.runner.core.SweepSpec` handed to every
        evaluation.
    evaluate:
        The worker entry point (module-level, picklable); injected so
        tests can supervise arbitrary functions.
    config:
        A :class:`ResilienceConfig` (defaults are production-safe).
    n_workers:
        Pool width for :meth:`execute_pool`.  Pools use fork where
        available, else the platform default.
    """

    def __init__(
        self,
        spec,
        evaluate,
        *,
        config: Optional[ResilienceConfig] = None,
        n_workers: int = 1,
    ) -> None:
        self.spec = spec
        self.evaluate = evaluate
        self.config = config or ResilienceConfig()
        self.n_workers = check_workers(n_workers)
        self.mp_context = self._pool_context()
        self.report = ExecutionReport()

    def execute(
        self,
        pending: Sequence[Tuple[int, "object"]],
        deliver: Deliver,
        on_event: Optional[OnEvent] = None,
        *,
        parallel: bool,
    ) -> ExecutionReport:
        """Run ``pending`` through the pool when that can help, else serially.

        A pool is only worth its start-up when the caller allows it
        (``parallel``), there is more than one worker, and more than one
        point to spread over them; ``report.pooled`` records the choice.
        """
        if parallel and self.n_workers > 1 and len(pending) > 1:
            self.report.pooled = True
            return self.execute_pool(pending, deliver, on_event)
        self._drain_serial(
            deque(_Slot(index, point) for index, point in pending), deliver, on_event
        )
        return self.report

    # ------------------------------------------------------------------
    # Failure bookkeeping (shared by pool and serial paths)
    # ------------------------------------------------------------------
    def _record_failure(
        self,
        slot: _Slot,
        kind: str,
        message: str,
        queue: deque,
        now: float,
        on_event: Optional[OnEvent],
    ) -> None:
        """Charge one failed attempt; requeue with backoff or quarantine."""
        slot.attempts += 1
        failure = PointFailure(kind, message, slot.attempts)
        slot.failures.append(failure)
        report = self.report
        report.failure_history.setdefault(slot.index, []).append(failure)
        tele = _telemetry_session()
        if tele.enabled:
            tele.registry.counter("runner.point_failures", kind=kind).inc()
        backoff = exponential_backoff_s(
            RETRY_BACKOFF_BASE_S, RETRY_BACKOFF_MULTIPLIER, RETRY_BACKOFF_MAX_S,
            slot.attempts - 1,
        )
        exhausted = slot.attempts >= self.config.max_attempts
        over_budget = slot.backoff_spent + backoff > RETRY_BACKOFF_BUDGET_S
        if exhausted or over_budget:
            report.quarantined.append(
                QuarantinedPoint(
                    index=slot.index,
                    point=slot.point,
                    attempts=slot.attempts,
                    failures=tuple(slot.failures),
                )
            )
            if tele.enabled:
                tele.registry.counter("runner.quarantined").inc()
            # If a flight recorder is live in *this* process (serial
            # execution or an in-process experiment driving the
            # supervisor), snapshot it at the quarantine decision.
            # Pool workers dump on their own side at the point of
            # failure; a crashed worker's memory is gone by now.
            tele.flightrec.maybe_autodump(
                f"quarantine:{kind}:point{slot.index}"
            )
        else:
            slot.backoff_spent += backoff
            slot.eligible_at = now + backoff
            slot.started_at = None
            queue.append(slot)
            report.retries += 1
        if on_event is not None:
            on_event()

    # ------------------------------------------------------------------
    # Serial execution (the fallback, and the parallel=False path)
    # ------------------------------------------------------------------
    def _drain_serial(
        self,
        queue: deque,
        deliver: Deliver,
        on_event: Optional[OnEvent],
    ) -> None:
        """Evaluate in-process with the same retry/quarantine rules.

        No preemptive timeout is possible in-process; the simulation
        watchdog (``spec.watchdog``) is the hang defence here.
        """
        while queue:
            slot = queue.popleft()
            now = time.monotonic()
            if slot.eligible_at > now:
                time.sleep(slot.eligible_at - now)
            try:
                result = self.evaluate(self.spec, slot.point)
            except Exception as exc:
                self._record_failure(
                    slot, _classify(exc), str(exc), queue, time.monotonic(),
                    on_event,
                )
            else:
                deliver(slot.index, result)

    # ------------------------------------------------------------------
    # Pool execution
    # ------------------------------------------------------------------
    @staticmethod
    def _pool_context() -> multiprocessing.context.BaseContext:
        # fork avoids re-importing the package per worker; fall back to the
        # platform default where fork is unavailable.
        methods = multiprocessing.get_all_start_methods()
        return multiprocessing.get_context("fork" if "fork" in methods else None)

    def _new_pool(self, width: int) -> ProcessPoolExecutor:
        return ProcessPoolExecutor(
            max_workers=max(1, width), mp_context=self.mp_context
        )

    @staticmethod
    def _kill_pool(pool: ProcessPoolExecutor) -> None:
        """Forcibly stop a pool whose workers may be hung.

        ``shutdown`` alone would join hung workers forever, so the
        worker processes are killed first.  ``_processes`` is stdlib
        internal but stable across supported versions; if absent the
        plain shutdown still applies.
        """
        processes = getattr(pool, "_processes", None) or {}
        for process in list(processes.values()):
            try:
                process.kill()
            except Exception:  # pragma: no cover - already-dead workers
                pass
        pool.shutdown(wait=False, cancel_futures=True)

    def execute_pool(
        self,
        pending: Sequence[Tuple[int, "object"]],
        deliver: Deliver,
        on_event: Optional[OnEvent] = None,
    ) -> ExecutionReport:
        """Run pending points through a supervised worker pool."""
        cfg = self.config
        queue = deque(_Slot(index, point) for index, point in pending)
        inflight: Dict[Future, _Slot] = {}
        pool: Optional[ProcessPoolExecutor] = None
        pool_width = 1
        consecutive_breaks = 0
        submit_seq = 0
        try:
            while queue or inflight:
                if pool is None:
                    pool_width = min(self.n_workers, max(1, len(queue)))
                    pool = self._new_pool(pool_width)
                now = time.monotonic()
                broken = False
                not_yet_eligible: deque = deque()
                while queue:
                    slot = queue.popleft()
                    if slot.eligible_at > now:
                        not_yet_eligible.append(slot)
                        continue
                    try:
                        future = pool.submit(self.evaluate, self.spec, slot.point)
                    except BrokenProcessPool:
                        # A worker died while this loop was still
                        # submitting.  The slot never reached the pool,
                        # so it goes back uncharged; what is in flight
                        # takes the break path below.
                        queue.appendleft(slot)
                        broken = True
                        break
                    slot.submit_seq = submit_seq
                    submit_seq += 1
                    inflight[future] = slot
                queue.extend(not_yet_eligible)
                if not inflight and not broken:
                    # Everything pending is backing off; sleep to the
                    # earliest eligibility instead of busy-waiting.
                    wake = min(slot.eligible_at for slot in queue)
                    time.sleep(max(0.0, min(wake - now, POLL_INTERVAL_S)))
                    continue

                done: set = set()
                if inflight:
                    done, _ = wait(
                        set(inflight),
                        timeout=POLL_INTERVAL_S,
                        return_when=FIRST_COMPLETED,
                    )
                now = time.monotonic()
                # Stamp futures first observed running: the timeout clock
                # and crash-blame both key off this.
                for future, slot in inflight.items():
                    if slot.started_at is None and future.running():
                        slot.started_at = now

                casualties: List[_Slot] = []
                for future in done:
                    slot = inflight.pop(future)
                    try:
                        result = future.result()
                    except BrokenProcessPool:
                        broken = True
                        casualties.append(slot)
                    except Exception as exc:
                        self._record_failure(
                            slot, _classify(exc), str(exc), queue, now, on_event
                        )
                        consecutive_breaks = 0
                    else:
                        deliver(slot.index, result)
                        consecutive_breaks = 0

                if broken:
                    casualties.extend(inflight.values())
                    inflight.clear()
                    self._assign_break_blame(
                        casualties, pool_width, queue, now, on_event
                    )
                    pool.shutdown(wait=False, cancel_futures=True)
                    pool = None
                    self.report.pool_rebuilds += 1
                    consecutive_breaks += 1
                    if (
                        consecutive_breaks >= POOL_BREAKS_BEFORE_FALLBACK
                        and queue
                    ):
                        self.report.serial_fallback = True
                        self._drain_serial(queue, deliver, on_event)
                        queue = deque()
                    continue

                if cfg.point_timeout_s is not None:
                    overdue = [
                        (future, slot)
                        for future, slot in inflight.items()
                        if slot.started_at is not None
                        and now - slot.started_at > cfg.point_timeout_s
                    ]
                    if overdue:
                        # A hung worker can't be cancelled: kill the pool,
                        # charge the overdue points, requeue the rest free.
                        for future, slot in overdue:
                            inflight.pop(future)
                            self._record_failure(
                                slot,
                                "timeout",
                                f"no result within {cfg.point_timeout_s}s",
                                queue,
                                now,
                                on_event,
                            )
                        for future, slot in list(inflight.items()):
                            slot.started_at = None
                            queue.append(slot)
                        inflight.clear()
                        self._kill_pool(pool)
                        pool = None
                        self.report.pool_rebuilds += 1
                        # A deliberate kill is not pool instability: the
                        # fallback counter only tracks unexplained breaks.
        finally:
            if pool is not None:
                pool.shutdown(wait=False, cancel_futures=True)
        return self.report

    def _assign_break_blame(
        self,
        casualties: List[_Slot],
        pool_width: int,
        queue: deque,
        now: float,
        on_event: Optional[OnEvent],
    ) -> None:
        """Charge the points plausibly responsible for a pool breakage.

        Suspects are points observed running before the break; queued
        bystanders are resubmitted without being charged an attempt.
        If the crash happened faster than a poll tick ever saw anyone
        running, fall back to the ``pool_width`` oldest submissions:
        workers consume the call queue FIFO, so the executing set is the
        oldest unfinished work — that always includes the crasher, and
        bounds over-blame (a free requeue of everything would loop
        forever on a crash-at-start point).
        """
        suspects = [slot for slot in casualties if slot.started_at is not None]
        if not suspects:
            suspects = sorted(casualties, key=lambda slot: slot.submit_seq)
            suspects = suspects[:pool_width]
        suspect_ids = {id(slot) for slot in suspects}
        for slot in casualties:
            if id(slot) in suspect_ids:
                self._record_failure(
                    slot,
                    "crash",
                    "worker process died (BrokenProcessPool)",
                    queue,
                    now,
                    on_event,
                )
            else:
                slot.started_at = None
                queue.append(slot)


__all__ = [
    "ExecutionReport",
    "PointFailure",
    "QuarantinedPoint",
    "ResilienceConfig",
    "SweepSupervisor",
]
