"""Calendar moves the engine tests make by hand.

``post_at`` plants the bare ``(time, seq, callback, args)`` record that
``Link`` pushes inline for an event nothing will cancel; ``step`` runs
the single next event, as ``run(max_events=1)``.
"""

import heapq


def post_at(sim, time, callback, *args):
    heapq.heappush(sim._heap, (time, next(sim._seq), callback, args))


def step(sim):
    """Run the next event; whether one ran."""
    before = sim.events_processed
    sim.run(max_events=1)
    return sim.events_processed > before
