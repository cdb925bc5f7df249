"""Progress reporting for long sweeps.

The runner calls a reporter after every completed point with a
:class:`SweepProgress` snapshot; :class:`ConsoleProgress` renders it as a
single self-overwriting status line, and tests plug in plain callables.
"""

from __future__ import annotations

import sys
import time
from dataclasses import dataclass
from typing import Callable, Optional


@dataclass
class SweepProgress:
    """A snapshot of how far the sweep has gotten.

    ``completed`` counts points that are *settled* — served from cache,
    restored from a checkpoint, freshly computed, or quarantined — so it
    reaches ``total`` even on a sweep with poisoned points.  The
    remaining counters break that total down: ``cached`` (cache hits),
    ``checkpointed`` (journal restores on ``--resume``), ``retries``
    (extra attempts the supervisor made), and ``quarantined`` (points
    given up on).
    """

    total: int
    completed: int
    cached: int
    started_at: float
    checkpointed: int = 0
    retries: int = 0
    quarantined: int = 0

    @property
    def elapsed_s(self) -> float:
        return max(0.0, time.perf_counter() - self.started_at)

    @property
    def points_per_second(self) -> float:
        elapsed = self.elapsed_s
        if elapsed <= 0:
            return 0.0
        return self.completed / elapsed

    @property
    def eta_s(self) -> Optional[float]:
        """Estimated seconds to completion (None before any throughput)."""
        rate = self.points_per_second
        if rate <= 0:
            return None
        return (self.total - self.completed) / rate


ProgressReporter = Callable[[SweepProgress], None]


#: Least wall time between two :class:`ConsoleProgress` lines.
MIN_INTERVAL_S = 0.5


class ConsoleProgress:
    """Writes ``[done/total] rate eta`` to stderr, rate-limited."""

    def __init__(self) -> None:
        self.stream = sys.stderr
        self._last_emit = 0.0

    def __call__(self, progress: SweepProgress) -> None:
        now = time.perf_counter()
        finished = progress.completed >= progress.total
        if not finished and now - self._last_emit < MIN_INTERVAL_S:
            return
        self._last_emit = now
        eta = progress.eta_s
        eta_text = "--" if eta is None else f"{eta:.0f}s"
        extras = ""
        if progress.checkpointed:
            extras += f" resumed={progress.checkpointed}"
        if progress.retries:
            extras += f" retries={progress.retries}"
        if progress.quarantined:
            extras += f" quarantined={progress.quarantined}"
        self.stream.write(
            f"\r[{progress.completed}/{progress.total}] "
            f"{progress.points_per_second:.1f} pts/s "
            f"cached={progress.cached}{extras} eta={eta_text}"
        )
        if finished:
            self.stream.write("\n")
        self.stream.flush()
