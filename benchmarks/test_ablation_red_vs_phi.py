"""Ablation: Phi end-host coordination vs in-network RED/ECN.

The paper pins the need for coordination on FIFO queueing ("the
prevalence of FIFO queueing makes the network not incentive
compatible").  The classic in-network answer to the same standing-queue
problem is RED.  This bench runs heavy long-lived traffic under

- drop-tail + default Cubic        (the status-quo baseline),
- RED + default Cubic              (router-side fix),
- drop-tail + Phi-tuned Cubic      (end-host coordination),

and shows both remedies cut the standing queue the baseline builds —
Phi needing no router support, which is its deployment argument.
"""

from functools import partial

import numpy as np
from bench_common import report, run_once, scaled

from repro.experiments.dumbbell import ExperimentEnv
from repro.simnet import DumbbellConfig, RedQueue
from repro.transport import CubicParams, CubicSender
from repro.workload import launch_long_running_flows
from repro.metrics import summarize_connections

N_SENDERS = 16
PHI_TUNED = CubicParams(window_init=4, initial_ssthresh=16, beta=0.6)


def _run_arm(queue_kind, params, seed):
    config = DumbbellConfig(n_senders=N_SENDERS)
    env = ExperimentEnv.create(config, seed=seed)
    if queue_kind == "red":
        buffer_bytes = config.buffer_bytes
        red = RedQueue(
            buffer_bytes,
            lambda: env.sim.now,
            np.random.default_rng(seed),
            min_thresh_bytes=0.1 * buffer_bytes,
            max_thresh_bytes=0.4 * buffer_bytes,
            max_probability=0.1,
        )
        # Swap before any traffic: the monitor reads link.queue lazily.
        env.topology.bottleneck.queue = red

    factory = partial(CubicSender, params=params)
    pairs = [
        (env.topology.senders[i], env.topology.receivers[i])
        for i in range(N_SENDERS)
    ]
    flows = launch_long_running_flows(
        env.sim, pairs, factory, env.flow_ids, env.rngs.stream("lr")
    )
    duration = scaled(30.0, 90.0)
    env.sim.run(until=duration)
    stats = [flow.finish() for flow in flows]
    drop_rate = env.topology.bottleneck.queue.stats.drop_rate()
    metrics = summarize_connections(
        stats,
        bottleneck_loss_rate=drop_rate,
        mean_utilization=env.monitor.mean_utilization(since=5.0),
    )
    return metrics


def _run_all():
    arms = {}
    seeds = range(scaled(2, 5))
    for label, queue_kind, params in [
        ("drop-tail + default", "droptail", CubicParams.default()),
        ("RED + default", "red", CubicParams.default()),
        ("drop-tail + Phi-tuned", "droptail", PHI_TUNED),
    ]:
        runs = [_run_arm(queue_kind, params, seed) for seed in seeds]
        arms[label] = (
            sum(m.queueing_delay_ms for m in runs) / len(runs),
            sum(m.mean_utilization for m in runs) / len(runs),
            sum(m.loss_rate for m in runs) / len(runs),
        )
    return arms


def test_ablation_red_vs_phi(benchmark, capfd):
    arms = run_once(benchmark, _run_all)

    with report(capfd, "Ablation: RED/in-network vs Phi/end-host queue control"):
        print(f"{'arm':<24s} {'delay(ms)':>10s} {'util':>6s} {'loss%':>7s}")
        for label, (delay, util, loss) in arms.items():
            print(f"{label:<24s} {delay:>10.0f} {util:>6.2f} {loss * 100:>7.2f}")

    baseline_delay = arms["drop-tail + default"][0]
    red_delay = arms["RED + default"][0]
    phi_delay = arms["drop-tail + Phi-tuned"][0]
    # Both remedies shrink the standing queue the baseline builds.
    assert red_delay < baseline_delay
    assert phi_delay < baseline_delay
    # Neither collapses the link.
    assert arms["RED + default"][1] > 0.6
    assert arms["drop-tail + Phi-tuned"][1] > 0.6
