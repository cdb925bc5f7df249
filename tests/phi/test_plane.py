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
    ContextServer,
    FailoverConfig,
    PlaneSpec,
    ReplicationConfig,
)
from repro.phi.plane import SharingMode
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
        (ReplicationConfig, "anti_entropy_period_s"),
        (FailoverConfig, "suspend_jitter"),
    ],
)
def test_nan_config_field_is_rejected(config, field):
    with pytest.raises(ValueError):
        config(**{field: NAN})


@pytest.mark.parametrize(
    "fields, message",
    [
        ({}, "need a policy \\(Cubic\\) or a table"),
        ({"policy": REFERENCE_POLICY, "mode": SharingMode.IDEAL,
          "replication": ReplicationConfig()}, "ideal oracle is not replicated"),
        ({"policy": REFERENCE_POLICY, "modes": ("scale",),
          "replication": ReplicationConfig()}, "severity is its cut, not lies"),
    ],
    ids=["no-senders", "replicated-ideal", "replicated-lies"],
)
def test_a_plane_that_cannot_be_built_is_refused(fields, message):
    with pytest.raises(ValueError, match=message):
        PlaneSpec(**fields)
