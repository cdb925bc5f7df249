"""Seeded random-number streams.

Every stochastic component (each workload source, the Remy trainer, the
IPFIX traffic model, ...) draws from its own named stream derived from a
single experiment seed, so runs are reproducible and adding a new
component never perturbs existing ones.  This mirrors ns-2's per-object
RNG substreams.
"""

from __future__ import annotations

import zlib
from functools import partial
from typing import Dict

import numpy as np

from .bounds import check


#: A run's seed: a non-negative integer (numpy refuses a negative one, and
#: 2.5 would silently run as seed 2).
check_seed = partial(check, "seed", ge=0, integer=True)


class RngStreams:
    """A registry of independent, deterministically-derived RNG streams."""

    def __init__(self, seed: int) -> None:
        self.seed = int(check_seed(seed))
        self._streams: Dict[str, np.random.Generator] = {}

    def stream(self, name: str) -> np.random.Generator:
        """Return (creating on first use) the stream called ``name``."""
        generator = self._streams.get(name)
        if generator is None:
            derived = zlib.crc32(name.encode("utf-8")) & 0xFFFFFFFF
            generator = np.random.default_rng((self.seed, derived))
            self._streams[name] = generator
        return generator

