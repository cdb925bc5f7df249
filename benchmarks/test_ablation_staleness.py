"""Ablation A2 (Section 2.2.2): how much context freshness matters.

Compares default Cubic (no sharing) against Phi-practical (lookup at
start / report at end) and Phi-ideal (live ground truth), plus a
*stale* practical server whose estimation window is far too long.  The
paper's claim: "such a practical approach, with minimal overhead, still
provides significant gains."
"""

from bench_common import report, run_once, scaled

from repro.experiments import run_cubic_fixed, run_phi_cubic, run_plane
from repro.experiments.scenarios import ScenarioPreset
from repro.phi import REFERENCE_POLICY, PlaneSpec, SharingMode
from repro.simnet import DumbbellConfig
from repro.transport import CubicParams
from repro.workload import OnOffConfig

PRESET = ScenarioPreset(
    name="staleness",
    config=DumbbellConfig(n_senders=16),
    workload=OnOffConfig(mean_on_bytes=400_000, mean_off_s=0.5),
    duration_s=30.0,
    description="A2 staleness ablation",
)


def _run_arm(mode, seed, duration, stale_window=None):
    if mode == "none":
        return run_cubic_fixed(CubicParams.default(), PRESET, seed, duration)
    if stale_window is None:
        return run_phi_cubic(REFERENCE_POLICY, PRESET, mode, seed, duration)
    spec = PlaneSpec(policy=REFERENCE_POLICY, window_s=stale_window)
    return run_plane(spec, PRESET, seed=seed, duration_s=duration).result


def _run_all():
    duration = scaled(25.0, 60.0)
    seeds = range(scaled(2, 6))
    arms = {}
    for name, kwargs in [
        ("no sharing (default)", dict(mode="none")),
        ("phi practical", dict(mode=SharingMode.PRACTICAL)),
        ("phi practical, stale", dict(mode=SharingMode.PRACTICAL, stale_window=300.0)),
        ("phi ideal", dict(mode=SharingMode.IDEAL)),
    ]:
        runs = [_run_arm(seed=s, duration=duration, **kwargs) for s in seeds]
        arms[name] = (
            sum(r.metrics.power_l for r in runs) / len(runs),
            sum(r.metrics.queueing_delay_ms for r in runs) / len(runs),
            sum(r.metrics.throughput_mbps for r in runs) / len(runs),
        )
    return arms


def test_ablation_context_staleness(benchmark, capfd):
    arms = run_once(benchmark, _run_all)

    with report(capfd, "Ablation A2: context freshness (none/practical/stale/ideal)"):
        print(f"{'arm':<24s} {'P_l':>9s} {'delay(ms)':>10s} {'thr(Mbps)':>10s}")
        for name, (power, delay, thr) in arms.items():
            print(f"{name:<24s} {power:>9.4f} {delay:>10.1f} {thr:>10.2f}")

    none = arms["no sharing (default)"][0]
    practical = arms["phi practical"][0]
    ideal = arms["phi ideal"][0]
    # The paper's claim: practical sharing still provides significant gains.
    assert practical > none
    assert ideal > none
    # Practical retains a large share of the ideal gain.
    assert practical >= 0.4 * ideal
