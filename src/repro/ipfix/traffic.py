"""Synthetic egress traffic model for a large cloud provider.

Substitutes the paper's proprietary IPFIX feed (documented in DESIGN.md).
The model captures the two properties Section 2.1's numbers rest on:

- **spatial skew**: destination /24 subnets have Zipf-like popularity (a
  handful of eyeball-ISP subnets receive a large share of flows — the
  "five computers" effect seen from the provider's egress), and
- **heavy-tailed flow sizes**: most flows are short, some are long video
  sessions, so per-flow packet counts follow a Pareto distribution.

Flow arrivals are Poisson within each minute, split across subnets by the
popularity weights.
"""

from __future__ import annotations

from functools import partial
from typing import Iterator, List

import numpy as np

from ..simnet.bounds import check
from .records import EgressFlow


#: The synthetic egress model, calibrated so the full pipeline (model ->
#: 1-in-4096 sampling -> /24+minute aggregation) lands near the paper's
#: §2.1 shape: ~50% of sampled flows sharing their slot with >= 5 others
#: and ~10-15% with >= 100 others.  Subnet popularity is Zipf; packets per
#: flow are Pareto (shape > 1: a finite mean) with a floor.
N_SUBNETS = 8_000
ZIPF_EXPONENT = 1.05
FLOWS_PER_MINUTE = 25_000.0
MEAN_DURATION_S = 8.0
PARETO_SHAPE = 1.3
MIN_PACKETS = 8
MEAN_PACKETS = 400.0
N_SERVERS = 4_669  # the Netflix CDN server count from the paper


#: How many minutes of traffic to generate.
check_minutes = partial(check, "n_minutes", ge=1, integer=True)


class EgressTrafficModel:
    """Generates :class:`EgressFlow` streams minute by minute."""

    def __init__(self, rng: np.random.Generator) -> None:
        self.rng = rng
        ranks = np.arange(1, N_SUBNETS + 1, dtype=float)
        weights = ranks ** (-ZIPF_EXPONENT)
        self._subnet_weights = weights / weights.sum()

    def subnet_ip(self, subnet_index: int, host: int) -> str:
        """A host address inside synthetic subnet ``subnet_index``."""
        if not 0 <= subnet_index < N_SUBNETS:
            raise ValueError(f"subnet index out of range: {subnet_index}")
        high, low = divmod(subnet_index, 256)
        return f"100.{high}.{low}.{host}"

    def server_ip(self, server_index: int) -> str:
        """The provider-side (source) address of a server."""
        high, low = divmod(server_index % 65_536, 256)
        return f"203.{high}.{low}.1"

    def _draw_packets(self, count: int) -> np.ndarray:
        # Pareto with mean ~= MEAN_PACKETS: scale = mean * (a-1)/a.
        scale = MEAN_PACKETS * (PARETO_SHAPE - 1.0) / PARETO_SHAPE
        draws = (self.rng.pareto(PARETO_SHAPE, count) + 1.0) * scale
        return np.maximum(MIN_PACKETS, draws.astype(np.int64))

    def generate_minute(self, minute: int) -> List[EgressFlow]:
        """All flows *starting* within minute ``minute``."""
        n_flows = int(self.rng.poisson(FLOWS_PER_MINUTE))
        if n_flows == 0:
            return []
        subnet_indices = self.rng.choice(
            N_SUBNETS, size=n_flows, p=self._subnet_weights
        )
        starts = minute * 60.0 + self.rng.uniform(0.0, 60.0, size=n_flows)
        durations = self.rng.exponential(MEAN_DURATION_S, size=n_flows)
        packets = self._draw_packets(n_flows)
        hosts = self.rng.integers(1, 255, size=n_flows)
        dst_ports = self.rng.integers(1024, 65_535, size=n_flows)
        servers = self.rng.integers(0, N_SERVERS, size=n_flows)

        flows = []
        for i in range(n_flows):
            flows.append(
                EgressFlow(
                    src_ip=self.server_ip(int(servers[i])),
                    src_port=443,
                    dst_ip=self.subnet_ip(int(subnet_indices[i]), int(hosts[i])),
                    dst_port=int(dst_ports[i]),
                    start_s=float(starts[i]),
                    duration_s=float(durations[i]),
                    packets=int(packets[i]),
                )
            )
        return flows

    def generate(self, n_minutes: int) -> Iterator[List[EgressFlow]]:
        """Yield per-minute flow batches for ``n_minutes`` minutes."""
        for minute in range(check_minutes(n_minutes)):
            yield self.generate_minute(minute)
