"""Extension: the Table-3 workload across all implemented baselines.

Adds the flavours the paper cites but does not tabulate — NewReno
(classical AIMD) and Vegas (delay-based) — alongside default Cubic and
Phi-coordinated Cubic, all on the Table-3 workload.  The expected
landscape: the loss-based baselines build queue, Vegas holds delay low
at some throughput cost, and Phi pushes the power frontier without
router or protocol changes.
"""

from bench_common import report, run_once, scaled

from repro.experiments import TABLE3_REMY, run_cubic_fixed, run_preset
from repro.experiments.scenarios import run_phi_cubic
from repro.phi import REFERENCE_POLICY, SharingMode
from repro.transport import CubicParams, NewRenoSender, VegasSender


def _run_all():
    duration = scaled(30.0, 60.0)
    seeds = range(scaled(2, 6))
    arms = {}

    def collect(label, runner):
        runs = [runner(seed) for seed in seeds]
        arms[label] = (
            sum(r.metrics.throughput_mbps for r in runs) / len(runs),
            sum(r.metrics.queueing_delay_ms for r in runs) / len(runs),
            sum(r.metrics.power_l for r in runs) / len(runs),
        )

    collect(
        "Cubic (default)",
        lambda seed: run_cubic_fixed(
            CubicParams.default(), TABLE3_REMY, seed=seed, duration_s=duration
        ),
    )
    for label, sender_cls in [("NewReno", NewRenoSender), ("Vegas", VegasSender)]:
        collect(
            label,
            lambda seed, cls=sender_cls: run_preset(
                lambda env: cls, TABLE3_REMY, seed=seed, duration_s=duration
            ),
        )
    collect(
        "Cubic-Phi (practical)",
        lambda seed: run_phi_cubic(
            REFERENCE_POLICY, TABLE3_REMY, SharingMode.PRACTICAL,
            seed=seed, duration_s=duration,
        ),
    )
    return arms


def test_extension_baseline_landscape(benchmark, capfd):
    arms = run_once(benchmark, _run_all)

    with report(capfd, "Extension: baseline landscape on the Table-3 workload"):
        print(f"{'flavour':<24s} {'thr(Mbps)':>10s} {'delay(ms)':>10s} {'P_l':>9s}")
        for label, (thr, delay, power) in arms.items():
            print(f"{label:<24s} {thr:>10.2f} {delay:>10.1f} {power:>9.4f}")

    # Vegas holds a (near-)minimal queue among the uncoordinated flavours.
    uncoordinated = ["Cubic (default)", "NewReno", "Vegas"]
    vegas_delay = arms["Vegas"][1]
    assert vegas_delay == min(arms[l][1] for l in uncoordinated)
    # Phi beats default Cubic on the power objective.
    assert arms["Cubic-Phi (practical)"][2] > arms["Cubic (default)"][2]
    # Everyone moves data.
    assert all(thr > 0.3 for thr, _d, _p in arms.values())
