"""The Phi control plane's inputs: a value that cannot mean anything is
refused when the plane is configured, never run as a healthy plane."""

import math

import pytest

from repro.experiments import (
    TABLE3_REMY,
    run_degraded_phi_cubic,
    run_partitioned_phi_cubic,
)
from repro.phi import (
    REFERENCE_POLICY,
    ChannelConfig,
    ContextServer,
    FailoverConfig,
    ReplicationConfig,
)
from repro.simnet import Simulator

NAN = math.nan


@pytest.mark.parametrize(
    "configure",
    [
        # heal_s=nan cut nothing: 0 failovers, against 1 at heal_s=3.0.
        lambda: run_partitioned_phi_cubic(
            REFERENCE_POLICY, TABLE3_REMY, severity=0.34, heal_s=NAN,
            partition_start_s=1.0, duration_s=2.0,
        ),
        # staleness_ttl_s=nan never chose STALE: no cache age is <= NaN.
        lambda: run_degraded_phi_cubic(
            REFERENCE_POLICY, TABLE3_REMY, unavailability=0.5,
            outage_period_s=2.0, staleness_ttl_s=NAN, duration_s=2.0,
        ),
        # lease_ttl_s=nan never expired a lease.
        lambda: ContextServer(Simulator(), 15e6, lease_ttl_s=NAN),
    ],
    ids=["x7-heal_s", "x4-staleness_ttl_s", "server-lease_ttl_s"],
)
def test_nan_plane_input_is_rejected(configure):
    with pytest.raises(ValueError):
        configure()


@pytest.mark.parametrize(
    "config, field",
    [
        (ChannelConfig, "latency_s"),
        (ChannelConfig, "jitter_s"),
        (ChannelConfig, "timeout_s"),
        (ChannelConfig, "backoff_base_s"),
        (ChannelConfig, "deadline_s"),
        (ReplicationConfig, "anti_entropy_period_s"),
        (ReplicationConfig, "quorum_staleness_s"),
        (FailoverConfig, "suspend_base_s"),
        (FailoverConfig, "suspend_multiplier"),
        (FailoverConfig, "suspend_max_s"),
    ],
)
def test_nan_config_field_is_rejected(config, field):
    with pytest.raises(ValueError):
        config(**{field: NAN})
