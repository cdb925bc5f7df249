"""Extension: default-vs-tuned gap across the paper's load range.

Section 2.2: "The varying workload generates different levels of
congestion at the bottleneck link, with average link utilization
spanning from 20% to 80% across the experiments."  Using the open-loop
Poisson workload to dial offered load precisely, this bench sweeps that
range and reports the P_l gap between default and tuned Cubic at each
level — the x-axis the paper's Figure 2 panels sit on.
"""

from functools import partial

from bench_common import report, run_once, scaled

from repro.experiments.dumbbell import ExperimentEnv
from repro.metrics import summarize_connections
from repro.simnet import DumbbellConfig
from repro.transport import CubicParams, CubicSender
from repro.workload import PoissonConfig, PoissonFlowGenerator

TUNED = CubicParams(window_init=8, initial_ssthresh=32, beta=0.3)
LOADS = (0.2, 0.4, 0.6, 0.8)


def _run_arm(load, params, seed):
    config = DumbbellConfig(n_senders=8)
    env = ExperimentEnv.create(config, seed=seed)
    pairs = [(env.topology.senders[i], env.topology.receivers[i]) for i in range(8)]
    generator = PoissonFlowGenerator(
        env.sim,
        pairs,
        partial(CubicSender, params=params),
        env.flow_ids,
        env.rngs.stream("poisson"),
        PoissonConfig.for_load(load, config.bottleneck_bandwidth_bps,
                               mean_flow_bytes=300_000),
        flow_tracker=env.flow_tracker,
    )
    generator.start()
    env.sim.run(until=scaled(30.0, 90.0))
    generator.stop()
    return summarize_connections(
        generator.completed,
        bottleneck_loss_rate=env.topology.bottleneck_queue.stats.drop_rate(),
        mean_utilization=env.monitor.mean_utilization(since=5.0),
    )


def _run_sweep():
    rows = []
    for load in LOADS:
        default = _run_arm(load, CubicParams.default(), seed=17)
        tuned = _run_arm(load, TUNED, seed=17)
        rows.append((load, default, tuned))
    return rows


def test_extension_load_sweep(benchmark, capfd):
    rows = run_once(benchmark, _run_sweep)

    with report(capfd, "Extension: default vs tuned Cubic across offered load"):
        print(f"{'load':>5s} {'util':>6s} | {'default P_l':>12s} {'delay':>7s} | "
              f"{'tuned P_l':>10s} {'delay':>7s} | {'gain':>6s}")
        for load, default, tuned in rows:
            gain = tuned.power_l / max(default.power_l, 1e-9)
            print(f"{load:>5.1f} {default.mean_utilization:>6.2f} | "
                  f"{default.power_l:>12.4f} {default.queueing_delay_ms:>7.1f} | "
                  f"{tuned.power_l:>10.4f} {tuned.queueing_delay_ms:>7.1f} | "
                  f"{gain:>6.2f}x")

    # Offered load actually rises across the sweep.
    utils = [default.mean_utilization for _l, default, _t in rows]
    assert utils[0] < utils[-1]
    # Tuned parameters never lose badly, and win clearly somewhere in the
    # paper's range.
    gains = [
        tuned.power_l / max(default.power_l, 1e-9)
        for _l, default, tuned in rows
    ]
    assert max(gains) > 1.2
    assert min(gains) > 0.5
