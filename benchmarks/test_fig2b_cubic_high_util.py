"""Figure 2b: Cubic parameter sweep at high link utilization.

Same workload shape as Figure 2a but with enough senders to drive the
bottleneck hard.  Paper headline: the optimal setting achieves a lower
packet loss rate than the default ("0.01% vs. 3.92%"), alongside higher
throughput and lower queueing delay; optimal settings shift smaller as
utilization rises.
"""

from bench_common import report, run_once, scaled

from repro.experiments import (
    FIG2A_LOW_UTILIZATION,
    FIG2B_HIGH_UTILIZATION,
    run_table2_sweep,
)
from repro.phi.optimizer import select_optimal
from repro.transport import CubicParams

REDUCED_GRID = [
    CubicParams.default(),
    CubicParams(window_init=2, initial_ssthresh=8, beta=0.3),
    CubicParams(window_init=4, initial_ssthresh=16, beta=0.3),
    CubicParams(window_init=8, initial_ssthresh=16, beta=0.5),
    CubicParams(window_init=16, initial_ssthresh=64, beta=0.2),
    CubicParams(window_init=32, initial_ssthresh=128, beta=0.2),
    CubicParams(window_init=4, initial_ssthresh=8, beta=0.7),
]


def _run_sweeps():
    high = run_table2_sweep(
        FIG2B_HIGH_UTILIZATION,
        REDUCED_GRID,
        n_runs=scaled(2, 8),
        base_seed=200,
        duration_s=scaled(25.0, 60.0),
    )[0]
    low = run_table2_sweep(
        FIG2A_LOW_UTILIZATION,
        REDUCED_GRID,
        n_runs=scaled(2, 8),
        base_seed=100,
        duration_s=scaled(25.0, 60.0),
    )[0]
    return high, low


def test_fig2b_high_utilization_sweep(benchmark, capfd):
    high, low = run_once(benchmark, _run_sweeps)

    default = next(r for r in high if r.params == CubicParams.default())
    optimal_high = select_optimal(high)
    optimal_low = select_optimal(low)

    with report(capfd, "Figure 2b: Cubic parameters, high link utilization"):
        print(f"{'wInit':>6s} {'ssthr':>6s} {'beta':>5s} "
              f"{'thr(Mbps)':>10s} {'delay(ms)':>10s} {'loss%':>7s} {'P_l':>8s}")
        for result in sorted(high, key=lambda r: -r.mean_power_l):
            p = result.params
            marker = " <= optimal" if result is optimal_high else (
                " <= default" if result is default else "")
            print(f"{p.window_init:>6.0f} {p.initial_ssthresh:>6.0f} {p.beta:>5.1f} "
                  f"{result.mean_throughput_mbps:>10.2f} "
                  f"{result.mean_queueing_delay_ms:>10.1f} "
                  f"{result.mean_loss_rate * 100:>7.2f} "
                  f"{result.mean_power_l:>8.3f}{marker}")
        print(f"\npaper: optimal loss 0.01% vs default 3.92%")
        print(f"ours : optimal loss {optimal_high.mean_loss_rate * 100:.2f}% vs "
              f"default {default.mean_loss_rate * 100:.2f}%")
        print(f"optimal ssthresh: low-util {optimal_low.params.initial_ssthresh:.0f} "
              f"-> high-util {optimal_high.params.initial_ssthresh:.0f}")

    # Paper shapes.
    assert optimal_high.mean_power_l > default.mean_power_l
    assert optimal_high.mean_queueing_delay_ms < default.mean_queueing_delay_ms
    assert optimal_high.mean_loss_rate <= default.mean_loss_rate
    # "optimal settings of these parameters shift to be smaller as the
    # link utilization becomes higher" (ssthresh + window_init combined).
    size_low = (
        optimal_low.params.initial_ssthresh + optimal_low.params.window_init
    )
    size_high = (
        optimal_high.params.initial_ssthresh + optimal_high.params.window_init
    )
    assert size_high <= size_low
