#!/usr/bin/env python3
"""A "five computers" CDN: coordinated streaming with prioritization.

Models the paper's motivating scenario — a dominant video provider whose
servers reach many clients behind a shared WAN bottleneck:

1. A fleet of on/off streaming sessions first runs uncoordinated (stock
   Cubic), then coordinated through a Phi context server.
2. The provider then prioritizes across its own flows (Section 3.3):
   HD movie streams get a larger share than background bulk transfers,
   while the ensemble stays TCP-friendly in aggregate.

Run:  python examples/cdn_coordination.py
"""

from repro.experiments import ScenarioPreset, run_cubic_fixed, run_phi_cubic
from repro.phi import REFERENCE_POLICY, SharingMode
from repro.prioritization import EnsembleAllocator, FlowClass, PriorityController
from repro.simnet import (
    DumbbellConfig,
    DumbbellTopology,
    FlowIdAllocator,
    Simulator,
)
from repro.transport import CubicParams
from repro.workload import OnOffConfig

CDN = ScenarioPreset(
    name="cdn",
    config=DumbbellConfig(n_senders=20, bottleneck_bandwidth_bps=50e6, rtt_s=0.08),
    workload=OnOffConfig(mean_on_bytes=2_000_000, mean_off_s=1.0),
    duration_s=40.0,
    description="20 CDN servers streaming through a 50 Mbps peering link",
)


def streaming_comparison():
    print("== Part 1: uncoordinated vs Phi-coordinated streaming ==")
    print(CDN.description, "\n")

    uncoordinated = run_cubic_fixed(CubicParams.default(), CDN, seed=11)
    coordinated = run_phi_cubic(REFERENCE_POLICY, CDN, SharingMode.PRACTICAL, seed=11)

    for label, result in [
        ("uncoordinated (default Cubic)", uncoordinated),
        ("Phi-coordinated", coordinated),
    ]:
        metrics = result.metrics
        print(f"{label:<32s} session-thr={metrics.throughput_mbps:5.2f} Mbps  "
              f"delay={metrics.queueing_delay_ms:6.1f} ms  "
              f"loss={metrics.loss_rate * 100:4.2f}%  P_l={metrics.power_l:.4f}")
    print()


def prioritized_streaming():
    print("== Part 2: prioritization across the provider's own flows ==")
    sim = Simulator()
    config = DumbbellConfig(
        n_senders=10, bottleneck_bandwidth_bps=30e6, rtt_s=0.06
    )
    topology = DumbbellTopology(sim, config)
    allocator = EnsembleAllocator(
        [FlowClass("hd-movie", 5.0), FlowClass("prefetch", 1.0)]
    )
    controller = PriorityController(sim, allocator)
    pairs = [(topology.senders[i], topology.receivers[i]) for i in range(10)]
    classes = ["hd-movie"] * 4 + ["prefetch"] * 6
    flows = controller.launch(pairs, classes, FlowIdAllocator())

    duration = 30.0
    sim.run(until=duration)
    by_class = controller.throughput_by_class(duration)
    controller.finish_all()

    print(f"10 persistent flows over a {config.bottleneck_bandwidth_bps / 1e6:.0f} "
          f"Mbps link, weights sum to {sum(f.weight for f in flows):.1f}\n")
    for name, count in [("hd-movie", 4), ("prefetch", 6)]:
        print(f"  {name:<10s} x{count}: aggregate {by_class[name]:5.2f} Mbps "
              f"({by_class[name] / count:5.2f} Mbps per flow)")
    ratio = (by_class["hd-movie"] / 4) / (by_class["prefetch"] / 6)
    print(f"\n  per-flow HD : prefetch ratio = {ratio:.1f} : 1 "
          f"(importance ratio was 5 : 1)")


def main():
    streaming_comparison()
    prioritized_streaming()


if __name__ == "__main__":
    main()
