"""Informed jitter-buffer sizing (Section 3.2).

"The jitter buffer size for audio-video streaming could be initialized
and updated over time based on the shared information."

A :class:`JitterObservatory` pools one-way-delay-variation observations
per network location (contributed by the entity's other streams); a new
stream asks it for an initial buffer size instead of starting from a
fixed guess and adapting slowly.  :func:`late_loss_rate` quantifies the
benefit: packets arriving after their playout deadline are lost to the
codec, so a well-chosen buffer trades a little latency for far fewer
late losses.
"""

from __future__ import annotations

from collections import defaultdict, deque
from dataclasses import dataclass
from typing import Deque, Dict, Sequence, Tuple

import numpy as np

from ..simnet.bounds import check

LocationKey = Tuple[str, str]
"""(client AS, metro)."""

#: Default fixed initial buffer used by uninformed clients (seconds).
UNINFORMED_DEFAULT_BUFFER_S = 0.040

#: Safety factor applied to the jitter quantile when recommending a size.
DEFAULT_SAFETY_FACTOR = 1.2


@dataclass(frozen=True)
class JitterBufferRecommendation:
    """What the observatory tells a new stream."""

    buffer_s: float
    samples: int
    p95_jitter_s: float


class JitterObservatory:
    """Shared per-location jitter statistics."""

    def __init__(self, max_samples_per_location: int = 50_000) -> None:
        check("max_samples_per_location", max_samples_per_location, ge=1, integer=True)
        self._samples: Dict[LocationKey, Deque[float]] = defaultdict(
            lambda: deque(maxlen=max_samples_per_location)
        )

    def record_jitter(self, location: LocationKey, jitter_s: float) -> None:
        """Contribute one delay-variation sample (seconds, >= 0)."""
        check("jitter_s", jitter_s, ge=0)
        self._samples[location].append(jitter_s)

    def record_arrivals(
        self, location: LocationKey, interarrival_s: Sequence[float], period_s: float
    ) -> None:
        """Contribute a stream's arrival record.

        Jitter samples are |interarrival - nominal period|, the standard
        instantaneous delay-variation measure.
        """
        check("period_s", period_s, gt=0)
        for gap in interarrival_s:
            self.record_jitter(location, abs(gap - period_s))

    def sample_count(self, location: LocationKey) -> int:
        """Samples held for ``location``."""
        return len(self._samples.get(location, ()))

    def recommend(
        self,
        location: LocationKey,
        *,
        quantile: float = 0.95,
        safety_factor: float = DEFAULT_SAFETY_FACTOR,
        fallback_s: float = UNINFORMED_DEFAULT_BUFFER_S,
    ) -> JitterBufferRecommendation:
        """Initial buffer size for a new stream at ``location``.

        With no shared data, falls back to the uninformed default — the
        recommendation then carries ``samples=0`` so callers can tell.
        """
        if not 0 < quantile < 1:
            raise ValueError(f"quantile must be in (0, 1): {quantile}")
        samples = self._samples.get(location)
        if not samples:
            return JitterBufferRecommendation(
                buffer_s=fallback_s, samples=0, p95_jitter_s=0.0
            )
        array = np.asarray(samples)
        p = float(np.quantile(array, quantile))
        return JitterBufferRecommendation(
            buffer_s=max(1e-4, p * safety_factor),
            samples=int(array.size),
            p95_jitter_s=float(np.quantile(array, 0.95)),
        )


def late_loss_rate(
    one_way_delays_s: Sequence[float], buffer_s: float
) -> float:
    """Fraction of packets arriving later than the playout deadline.

    The playout deadline is the *minimum* observed delay plus the buffer:
    a packet is late (lost to the codec) when its extra delay over the
    fastest packet exceeds the buffer.
    """
    if buffer_s < 0:
        raise ValueError(f"buffer must be >= 0: {buffer_s}")
    delays = np.asarray(one_way_delays_s, dtype=float)
    if delays.size == 0:
        return 0.0
    deadline = delays.min() + buffer_s
    return float(np.mean(delays > deadline))


def buffer_tradeoff_curve(
    one_way_delays_s: Sequence[float],
    buffer_sizes_s: Sequence[float],
) -> list:
    """(buffer, late-loss) pairs for plotting the latency/loss trade-off."""
    return [
        (float(b), late_loss_rate(one_way_delays_s, float(b)))
        for b in buffer_sizes_s
    ]
