"""Ablation: choice of optimization objective (P vs P_l vs log P).

DESIGN.md calls this design choice out: the paper optimizes P_l for the
Cubic sweeps and log(P) for Remy.  This bench reruns one sweep and ranks
the same settings under all three objectives, showing how much the
winner (and the win margin over the default) depends on the metric.
"""

import math

from bench_common import report, run_once, scaled

from repro.experiments import FIG2B_HIGH_UTILIZATION, run_table2_sweep
from repro.transport import CubicParams

GRID = [
    CubicParams.default(),
    CubicParams(window_init=4, initial_ssthresh=16, beta=0.3),
    CubicParams(window_init=8, initial_ssthresh=32, beta=0.5),
    CubicParams(window_init=16, initial_ssthresh=64, beta=0.2),
    CubicParams(window_init=32, initial_ssthresh=128, beta=0.2),
]


def _objectives(result):
    runs = result.runs
    mean = lambda values: sum(values) / len(values)  # noqa: E731
    return {
        "P": mean([r.power for r in runs]),
        "P_l": mean([r.power_l for r in runs]),
        "log P": mean(
            [r.log_power if math.isfinite(r.log_power) else -99.0 for r in runs]
        ),
    }


def _run():
    return run_table2_sweep(
        FIG2B_HIGH_UTILIZATION,
        GRID,
        n_runs=scaled(2, 6),
        base_seed=400,
        duration_s=scaled(20.0, 60.0),
    )[0]


def test_ablation_objective_choice(benchmark, capfd):
    results = run_once(benchmark, _run)

    scored = [(result, _objectives(result)) for result in results]
    default_scores = next(
        scores for result, scores in scored if result.params == CubicParams.default()
    )
    winners = {}
    for objective in ("P", "P_l", "log P"):
        winners[objective] = max(scored, key=lambda pair: pair[1][objective])

    with report(capfd, "Ablation: objective choice (P vs P_l vs log P)"):
        print(f"{'wInit':>6s} {'ssthr':>6s} {'beta':>5s} "
              f"{'P':>9s} {'P_l':>9s} {'log P':>8s}")
        for result, scores in scored:
            p = result.params
            print(f"{p.window_init:>6.0f} {p.initial_ssthresh:>6.0f} "
                  f"{p.beta:>5.1f} {scores['P']:>9.4f} {scores['P_l']:>9.4f} "
                  f"{scores['log P']:>8.2f}")
        for objective, (result, scores) in winners.items():
            p = result.params
            print(f"winner under {objective:<6s}: "
                  f"wInit={p.window_init:.0f} ssthr={p.initial_ssthresh:.0f} "
                  f"beta={p.beta:.1f}")

    # Every objective prefers *some* tuned setting over the default.
    for objective in ("P", "P_l", "log P"):
        winner_result, winner_scores = winners[objective]
        assert winner_scores[objective] >= default_scores[objective]
        assert winner_result.params.initial_ssthresh < 65536.0
    # P and P_l agree closely when loss is modest; both dominated by delay.
    assert winners["P_l"][1]["P"] >= 0.5 * winners["P"][1]["P"]
