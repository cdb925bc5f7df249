"""Model test: the engine against a sorted-list reference calendar.

A seeded random program of ``schedule`` / ``schedule_at`` / ``post_at`` /
``cancel`` / ``run(until=…, max_events=…)`` / ``step`` / ``peek_time`` /
``clear`` runs on the real :class:`Simulator` (and its checked mirror) and
on :class:`ReferenceCalendar` side by side; firing order, ``now``, ``events_processed`` and
``pending_events`` must agree after every operation.  The reference is
deliberately naive — one list, sorted on every pop — so it shares no
mechanism (heap, lazy deletion, two record shapes) with the engine.
"""

import random

import pytest

from repro.simcheck import CheckedSimulator
from repro.simnet.engine import Simulator


class ReferenceCalendar:
    """The engine's contract in thirty lines."""

    def __init__(self):
        self.now, self.processed, self.seq = 0.0, 0, 0
        self.pending = []  # [time, seq, tag]
        self.fired = []

    def schedule_at(self, time, tag):
        self.pending.append([time, self.seq, tag])
        self.seq += 1

    def cancel(self, tag):
        self.pending = [event for event in self.pending if event[2] != tag]

    def peek_time(self):
        return min(self.pending)[0] if self.pending else None

    def step(self):
        if not self.pending:
            return False
        self.pending.sort()
        time, _, tag = self.pending.pop(0)
        self.now, self.processed = time, self.processed + 1
        self.fired.append(tag)
        return True

    def run(self, until=None, max_events=None):
        executed = 0
        while self.pending and (max_events is None or executed < max_events):
            if until is not None and self.peek_time() > until:
                break
            self.step()
            executed += 1
        if until is not None and self.now < until:
            if not self.pending or self.peek_time() > until:
                self.now = until

    def clear(self):
        self.pending = []


def _agree(sim, ref, fired):
    assert fired == ref.fired
    assert sim.now == ref.now
    assert sim.events_processed == ref.processed
    assert sim.pending_events == len(ref.pending)


@pytest.mark.parametrize("seed", range(12))
def test_random_program_matches_reference(seed):
    for engine in (Simulator, CheckedSimulator):
        _run_program(engine(), random.Random(seed))


def _run_program(sim, rng):
    ref = ReferenceCalendar()
    fired, handles = [], {}
    for tag in range(400):
        op = rng.random()
        if op < 0.45:
            # Coarse times on purpose: ties exercise insertion order,
            # across timers and posted records alike.
            how = rng.randrange(3)
            if how == 0:
                delay = rng.randrange(0, 8) * 0.5
                handles[tag] = sim.schedule(delay, fired.append, tag)
                ref.schedule_at(ref.now + delay, tag)
            else:
                time = sim.now + rng.randrange(0, 8) * 0.5
                if how == 1:
                    handles[tag] = sim.schedule_at(time, fired.append, tag)
                else:
                    sim.post_at(time, fired.append, tag)  # no handle to keep
                ref.schedule_at(time, tag)
        elif op < 0.60 and handles:
            # Any handle ever issued: pending, fired, cancelled or cleared.
            victim = rng.choice(sorted(handles))
            handles[victim].cancel()
            ref.cancel(victim)
        elif op < 0.75:
            until = None if rng.random() < 0.3 else sim.now + rng.randrange(0, 6) * 0.5
            max_events = None if rng.random() < 0.4 else rng.randrange(0, 5)
            sim.run(until=until, max_events=max_events)
            ref.run(until=until, max_events=max_events)
        elif op < 0.85:
            assert sim.step() == ref.step()
        elif op < 0.97:
            assert sim.peek_time() == ref.peek_time()
        else:
            sim.clear()
            ref.clear()
        _agree(sim, ref, fired)
    sim.run()
    ref.run()
    _agree(sim, ref, fired)
    assert sim.pending_events == 0
