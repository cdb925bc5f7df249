"""Observers observe: telemetry, the flight recorder and simcheck — alone
or stacked — leave a table-3 run bit-identical to the plain one, do real
work while armed, and leave nothing armed behind."""

from contextlib import ExitStack

import pytest

from repro import flightrec, telemetry
from repro.experiments.scenarios import TABLE3_REMY, run_cubic_fixed
from repro.runner.records import flow_records
from repro.simcheck import ViolationReport
from repro.transport.cubic import CubicParams

PARAMS = CubicParams(window_init=4.0, initial_ssthresh=64.0, beta=0.7)


def run(**kwargs):
    return run_cubic_fixed(PARAMS, TABLE3_REMY, seed=1, duration_s=3.0, **kwargs)


@pytest.fixture(scope="module")
def plain():
    # Explicitly unchecked: under REPRO_SIMCHECK=1 the default would be
    # a checked run, and the reference must be the bare engine.
    return run(checked=False)


@pytest.mark.parametrize(
    "observers",
    [
        ("telemetry",),
        ("flightrec",),
        ("simcheck",),
        ("telemetry", "flightrec", "simcheck"),
    ],
    ids="+".join,
)
def test_observed_run_equals_plain_run(plain, observers):
    checked = "simcheck" in observers
    report = ViolationReport()
    tele = rec = None
    with ExitStack() as stack:
        if "telemetry" in observers:
            tele = stack.enter_context(telemetry.use())
        if "flightrec" in observers:
            rec = stack.enter_context(flightrec.use())
        observed = run(checked=checked, check_report=report)

    assert observed.events_processed == plain.events_processed
    assert observed.metrics == plain.metrics
    assert flow_records(observed.per_sender_stats) == flow_records(
        plain.per_sender_stats
    )
    assert not telemetry.session().enabled
    assert not telemetry.session().flightrec.enabled

    if tele is not None:
        counters = tele.registry.snapshot()["counters"]
        assert counters["sim.events"] == plain.events_processed
    if rec is not None:
        assert rec.simnet_emitted + rec.transport_emitted > 0
    assert report.ok
    assert (report.checks_performed > 0) == checked
