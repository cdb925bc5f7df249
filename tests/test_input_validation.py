"""Inputs a model cannot use are refused when they are configured.

Each case used to construct: a NaN passes every ``x <= 0`` check, so it
ran as a healthy value (a NaN mean drawn from, a NaN jitter clamped away,
a NaN timeout that never fires).  Every check here is one a NaN fails.
"""

import math

import pytest

from repro.phi.guard import ContextGuard
from repro.prioritization import FlowClass, WeightedRenoSender
from repro.runner import ResilienceConfig
from repro.simnet import DumbbellConfig, DumbbellTopology, FlowSpec, Simulator
from repro.workload import OnOffConfig

NAN = math.nan


def _weighted_sender(weight):
    sim = Simulator()
    top = DumbbellTopology(sim, DumbbellConfig(n_senders=1))
    spec = FlowSpec(1, top.senders[0].name, 1, top.receivers[0].name, 443)
    return WeightedRenoSender(sim, top.senders[0], spec, 1000, weight=weight)


@pytest.mark.parametrize(
    "configure",
    [
        lambda: OnOffConfig(mean_on_bytes=NAN),
        lambda: OnOffConfig(mean_off_s=NAN),
        lambda: OnOffConfig(start_jitter_s=-1.0),
        lambda: OnOffConfig(start_jitter_s=NAN),
        lambda: OnOffConfig(min_flow_bytes=0),
        lambda: FlowClass("x", NAN),
        lambda: _weighted_sender(NAN),
        lambda: ResilienceConfig(point_timeout_s=NAN),
        lambda: ContextGuard(NAN),
    ],
    ids=[
        "onoff-mean_on_bytes-nan",
        "onoff-mean_off_s-nan",
        "onoff-start_jitter_s-negative",
        "onoff-start_jitter_s-nan",
        "onoff-min_flow_bytes-zero",
        "flow_class-importance-nan",
        "weighted_reno-weight-nan",
        "resilience-point_timeout_s-nan",
        "guard-capacity_mbps-nan",
    ],
)
def test_unusable_input_is_rejected(configure):
    with pytest.raises(ValueError):
        configure()
