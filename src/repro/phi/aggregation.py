"""Privacy-preserving cross-provider aggregation (Section 3.1).

"The information to be shared between providers, to establish a common
barometer on the network weather, would be minimal (e.g. the level of
congestion in a particular part of the network).  Work on secure
multiparty computation and anonymous aggregation could be leveraged to
further shield such information sharing."

This module implements the classic additive-secret-sharing secure sum
(as in SEPIA / Roughan & Zhang): each provider splits its private value
into random shares, one per aggregator, so that no single aggregator —
and no coalition smaller than all of them — learns any provider's input,
yet the sum (and hence the mean congestion level) is recovered exactly.
Arithmetic is over a prime field with fixed-point encoding.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence

import numpy as np

#: A Mersenne prime comfortably larger than any encoded measurement.
FIELD_PRIME = (1 << 61) - 1

#: Fixed-point scale: utilization fractions keep 6 decimal digits.
FIXED_POINT_SCALE = 1_000_000


def encode(value: float) -> int:
    """Fixed-point encode a non-negative measurement into the field."""
    if value < 0:
        raise ValueError(f"secure sum encodes non-negative values, got {value}")
    encoded = int(round(value * FIXED_POINT_SCALE))
    if encoded >= FIELD_PRIME // 2:
        raise ValueError(f"value too large to encode: {value}")
    return encoded


def decode(encoded: int) -> float:
    """Inverse of :func:`encode`."""
    return (encoded % FIELD_PRIME) / FIXED_POINT_SCALE


def make_shares(value: float, n_shares: int, rng: np.random.Generator) -> List[int]:
    """Split ``value`` into ``n_shares`` additive shares over the field.

    Any proper subset of the shares is uniformly random and carries no
    information about the value.
    """
    if n_shares < 2:
        raise ValueError(f"need at least 2 shares, got {n_shares}")
    encoded = encode(value)
    shares = [int(rng.integers(0, FIELD_PRIME)) for __ in range(n_shares - 1)]
    last = (encoded - sum(shares)) % FIELD_PRIME
    shares.append(last)
    return shares


@dataclass
class Aggregator:
    """One of the non-colluding aggregation servers."""

    name: str
    _accumulator: int = 0

    def receive_share(self, share: int) -> None:
        """Fold one provider's share in."""
        self._accumulator = (self._accumulator + share) % FIELD_PRIME

    @property
    def partial_sum(self) -> int:
        """This aggregator's share of the global sum."""
        return self._accumulator


class SecureCongestionAggregation:
    """Coordinates a round of secure congestion-level averaging.

    Providers submit their private congestion measurements (e.g. the
    utilization each observes toward a destination region); the protocol
    reveals only the mean.
    """

    def __init__(self, aggregator_names: Sequence[str], rng: np.random.Generator) -> None:
        if len(aggregator_names) < 2:
            raise ValueError("secure aggregation needs >= 2 aggregators")
        if len(set(aggregator_names)) != len(aggregator_names):
            raise ValueError(f"duplicate aggregator names: {aggregator_names}")
        self.aggregators = [Aggregator(name) for name in aggregator_names]
        self.rng = rng
        self.providers: List[str] = []

    def submit(self, provider: str, congestion_level: float) -> None:
        """A provider contributes its private measurement."""
        shares = make_shares(congestion_level, len(self.aggregators), self.rng)
        for aggregator, share in zip(self.aggregators, shares):
            aggregator.receive_share(share)
        self.providers.append(provider)

    def reveal_mean(self) -> float:
        """Combine the aggregators' partials into the mean measurement.

        Only this combined output is ever revealed; inputs stay secret.
        """
        if not self.providers:
            raise RuntimeError("no providers have submitted")
        total = sum(a.partial_sum for a in self.aggregators) % FIELD_PRIME
        return decode(total) / len(self.providers)

    @property
    def round_size(self) -> int:
        """Number of providers in the current round."""
        return len(self.providers)
