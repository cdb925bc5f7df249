"""Deterministic random-scenario generation for the checked simulator.

One seed fully determines a scenario: a random dumbbell (sender count,
bandwidth, RTT, buffer), a random on/off workload, and a transport
flavour.  Running it under the invariant layer must produce zero
violations — that is the whole property.  The generator is shared by
``repro check --fuzz N`` and the hypothesis suite in
``tests/simcheck/test_properties.py`` (hypothesis feeds the seeds; the
scenario construction stays here so the CLI works without hypothesis).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Any, Dict, Optional

import numpy as np

from ..simnet.engine import WatchdogConfig
from ..simnet.topology import DumbbellConfig
from ..transport.cubic import CubicParams, CubicSender, NewRenoSender
from ..workload.onoff import OnOffConfig
from .violations import ViolationReport

#: Event budget per fuzz case: far above anything these small scenarios
#: legitimately need, so a trip means a runaway loop, not a tight limit.
FUZZ_MAX_EVENTS = 5_000_000

_FLAVOURS = ("cubic", "newreno")


@dataclass(frozen=True)
class FuzzScenario:
    """A fully-drawn random scenario (deterministic in its seed)."""

    seed: int
    config: DumbbellConfig
    workload: OnOffConfig
    duration_s: float
    flavour: str
    params: CubicParams

    def as_dict(self) -> Dict[str, Any]:
        """Compact description for violation reports and CLI output."""
        return {
            "seed": self.seed,
            "n_senders": self.config.n_senders,
            "bottleneck_mbps": self.config.bottleneck_bandwidth_bps / 1e6,
            "rtt_ms": self.config.rtt_s * 1e3,
            "buffer_bdp_multiple": self.config.buffer_bdp_multiple,
            "mean_on_bytes": self.workload.mean_on_bytes,
            "mean_off_s": self.workload.mean_off_s,
            "duration_s": self.duration_s,
            "flavour": self.flavour,
            "beta": self.params.beta,
        }


def draw_scenario(seed: int) -> FuzzScenario:
    """Draw the scenario determined by ``seed``."""
    rng = np.random.default_rng(seed)
    config = DumbbellConfig(
        n_senders=int(rng.integers(1, 6)),
        bottleneck_bandwidth_bps=float(rng.uniform(2e6, 50e6)),
        rtt_s=float(rng.uniform(0.02, 0.3)),
        buffer_bdp_multiple=float(rng.uniform(0.5, 8.0)),
    )
    workload = OnOffConfig(
        mean_on_bytes=float(rng.uniform(20_000, 300_000)),
        mean_off_s=float(rng.uniform(0.05, 1.5)),
        start_jitter_s=float(rng.uniform(0.01, 1.0)),
    )
    params = CubicParams(
        window_init=float(rng.choice([1.0, 2.0, 4.0, 16.0])),
        initial_ssthresh=float(rng.choice([4.0, 32.0, 256.0, 65536.0])),
        beta=float(rng.uniform(0.1, 0.9)),
    )
    return FuzzScenario(
        seed=seed,
        config=config,
        workload=workload,
        duration_s=float(rng.uniform(3.0, 8.0)),
        flavour=str(rng.choice(_FLAVOURS)),
        params=params,
    )


def run_fuzz_case(
    scenario: FuzzScenario,
    check_report: Optional[ViolationReport] = None,
):
    """Run ``scenario`` on a checked simulator; returns the result.

    With ``check_report=None`` any invariant violation raises
    :class:`~repro.simcheck.InvariantViolation` straight out of the run.
    """
    # Imported lazily: the experiment stack imports simcheck, so pulling
    # it in at module load would be a cycle.
    from ..experiments.dumbbell import ScenarioPreset, run_preset

    if scenario.flavour == "cubic":
        factory = partial(CubicSender, params=scenario.params)
    else:
        factory = partial(
            NewRenoSender,
            window_init=scenario.params.window_init,
            initial_ssthresh=scenario.params.initial_ssthresh,
        )
    preset = ScenarioPreset(
        name=f"fuzz-{scenario.seed}",
        config=scenario.config,
        workload=scenario.workload,
        duration_s=scenario.duration_s,
        description="random checked-simulator scenario",
    )
    return run_preset(
        lambda env: factory,
        preset,
        seed=scenario.seed,
        watchdog=WatchdogConfig(max_events=FUZZ_MAX_EVENTS),
        checked=True,
        check_report=check_report,
    )
