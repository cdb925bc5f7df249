"""The IPFIX packet sampler.

Section 2.1: "The IPFIX sampling rate is set to 4096 at each router
meaning that one in 4096 packets traversing the router is sampled and the
headers of these sampled packets are reported to the centralized
collector service."

Sampling is modelled per flow: each of a flow's packets is independently
selected with probability ``1/rate`` (a Binomial draw), and the selected
packets' timestamps are placed uniformly over the flow's lifetime.  This
is statistically equivalent to enumerating every packet and orders of
magnitude cheaper — the bench samples tens of millions of packets per
simulated minute.
"""

from __future__ import annotations

from typing import Iterable, List

import numpy as np

from .records import EgressFlow, SampledHeader

#: The paper's sampling rate: one in 4096 packets.
PAPER_SAMPLING_RATE = 4096


class IpfixSampler:
    """1-in-N packet sampler feeding a collector."""

    def __init__(self, rng: np.random.Generator) -> None:
        self.rng = rng
        self.rate = PAPER_SAMPLING_RATE
        self.packets_seen = 0
        self.packets_sampled = 0

    def sample_flow(self, flow: EgressFlow) -> List[SampledHeader]:
        """Headers of the flow's packets that the router sampled."""
        self.packets_seen += flow.packets
        n_sampled = int(self.rng.binomial(flow.packets, 1.0 / self.rate))
        self.packets_sampled += n_sampled
        if n_sampled == 0:
            return []
        if flow.duration_s > 0:
            offsets = self.rng.uniform(0.0, flow.duration_s, size=n_sampled)
        else:
            offsets = np.zeros(n_sampled)
        return [
            SampledHeader(
                four_tuple=flow.four_tuple,
                timestamp_s=flow.start_s + float(offset),
            )
            for offset in np.sort(offsets)
        ]

    def sample_flows(self, flows: Iterable[EgressFlow]) -> List[SampledHeader]:
        """Sample a batch of flows."""
        headers: List[SampledHeader] = []
        for flow in flows:
            headers.extend(self.sample_flow(flow))
        return headers

    @property
    def effective_rate(self) -> float:
        """Observed packets-per-sample (should approach ``rate``)."""
        if self.packets_sampled == 0:
            return float("inf")
        return self.packets_seen / self.packets_sampled
