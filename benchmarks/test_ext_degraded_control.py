"""Extension: graceful degradation under a failing control plane.

The paper's practical deployment (Section 3) makes the context server a
single point of coordination — this bench asks what Phi costs when that
server is partitioned away for part of the run.  Senders reach it
through the failure-aware :class:`ControlChannel` (timeouts, retries,
circuit breaker) and degrade via :class:`ResilientContextClient`
(staleness TTL, then stock-Cubic fallback).  Sweeping the fraction of
the run the server is unreachable traces the curve between the two
anchors:

* 0% down      -> exactly Phi-practical (coordination fully available)
* 100% down    -> exactly the uncoordinated default-Cubic baseline

The robustness claim: availability loss degrades Phi *gracefully* —
power never falls below the uncoordinated baseline, so the control
plane is a pure upside even when unreliable.

That upside holds on power only.  Partial outages cost *throughput*.
Measured at seeds 0,1 and 25 s: on this preset (2 s outage period and
TTL, as below) the 25% and 50% rows run at 0.905x and 0.898x stock
throughput (75%: 0.997x); on ``fig2a-low-utilization`` with the run's
default 5 s period and 10 s TTL (what ``repro fault degraded`` runs) the
partial rows run at 0.876-0.987x.  Power stays at or above 1.0x stock on
every row of both.  The throughput dips are below the 0.95 two-axis
floor that X6 and X7 hold, so ``DEGRADED`` declares its stock baseline
but no floor, and this bench asserts the power claim alone.
"""

from bench_common import report, run_once, scaled

from repro.experiments import run_fault_sweep, run_phi_cubic
from repro.experiments.degraded import DEGRADED
from repro.experiments.scenarios import ScenarioPreset
from repro.phi import REFERENCE_POLICY, SharingMode
from repro.simnet import DumbbellConfig
from repro.workload import OnOffConfig

PRESET = ScenarioPreset(
    name="degraded-control",
    config=DumbbellConfig(n_senders=16),
    workload=OnOffConfig(mean_on_bytes=400_000, mean_off_s=0.5),
    duration_s=30.0,
    description="context-server chaos sweep",
)

FRACTIONS = (0.0, 0.25, 0.5, 0.75, 1.0)


def _run_all():
    duration = scaled(25.0, 60.0)
    seeds = tuple(range(scaled(2, 6)))

    practical_runs = [
        run_phi_cubic(
            REFERENCE_POLICY, PRESET, mode=SharingMode.PRACTICAL,
            seed=seed, duration_s=duration,
        )
        for seed in seeds
    ]
    practical = sum(r.metrics.power_l for r in practical_runs) / len(practical_runs)

    outcome = run_fault_sweep(
        DEGRADED,
        REFERENCE_POLICY,
        PRESET,
        {"unavailability": FRACTIONS},
        seeds=seeds,
        duration_s=duration,
        fixed=dict(outage_period_s=2.0, staleness_ttl_s=2.0),
        parallel=False,
        collect_telemetry=False,
    )
    assert not outcome.quarantined, outcome.quarantined
    return practical, outcome.rows


def test_extension_degraded_control_plane(benchmark, capfd):
    practical, rows = run_once(benchmark, _run_all)
    # Default Cubic, one run per seed: the uncoordinated anchor.
    baseline = rows[0].baselines["stock"].power_l

    with report(capfd, "Extension: Phi power vs. context-server unavailability"):
        print(f"uncoordinated baseline P_l = {baseline:.4f}   "
              f"phi practical P_l = {practical:.4f}")
        print()
        print(f"{'down':>5s} {'P_l':>9s} {'vs base':>8s} {'delay(ms)':>10s} "
              f"{'thr(Mbps)':>10s} | {'fresh':>6s} {'stale':>6s} {'fallbk':>6s}")
        for row in rows:
            counts = row.accounting["decision_counts"]
            print(f"{row.axes['unavailability']:>5.2f} {row.mean_power_l:>9.4f} "
                  f"{row.vs('stock').power_l:>7.2f}x "
                  f"{row.mean_delay_ms:>10.1f} {row.mean_throughput_mbps:>10.2f} | "
                  f"{counts.get('fresh', 0):>6d} {counts.get('stale', 0):>6d} "
                  f"{counts.get('fallback', 0):>6d}")

    decisions = {
        row.axes["unavailability"]: row.accounting["decision_counts"] for row in rows
    }
    power = {row.axes["unavailability"]: row.mean_power_l for row in rows}
    # Anchor 1: with the server gone for the whole run every connection
    # falls back to stock Cubic, so power matches the uncoordinated
    # baseline (the ISSUE's +/-5% bound; the runs are in fact identical).
    assert abs(power[1.0] - baseline) <= 0.05 * baseline
    assert decisions[1.0].get("fresh", 0) == 0
    # Anchor 2: a healthy channel reproduces practical Phi sharing.
    assert abs(power[0.0] - practical) <= 0.05 * practical
    assert decisions[0.0].get("fallback", 0) == 0
    # Graceful degradation: no unavailability level drops power
    # meaningfully below the uncoordinated floor.
    for row in rows:
        assert row.mean_power_l >= 0.95 * baseline
    # Partial outages really exercise the degraded paths.
    assert decisions[0.5].get("fresh", 0) > 0
    assert (decisions[0.5].get("stale", 0)
            + decisions[0.5].get("fallback", 0)) > 0
