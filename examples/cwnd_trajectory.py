#!/usr/bin/env python3
"""Visualize a Cubic congestion-window trajectory from the flight recorder.

Runs one long Cubic flow through a shallow-buffered bottleneck so losses
occur, arms the flight recorder around the run, reads the flow's window
off the recorder's transport ring (the same records ``repro postmortem``
reads), and renders the classic Cubic sawtooth — concave recovery toward W_max, then
convex probing beyond it — as ASCII art.

Run:  python examples/cwnd_trajectory.py
"""

from repro import flightrec
from repro.simnet import DumbbellConfig, DumbbellTopology, FlowSpec, Simulator
from repro.transport import CubicSender, TcpSink


def render(trajectory, width=64, rows=20):
    """Downsample (time, cwnd) points into an ASCII plot."""
    if not trajectory:
        return "no samples"
    t_max = trajectory[-1][0]
    w_max = max(w for _t, w in trajectory)
    grid = [[" "] * width for _ in range(rows)]
    for t, w in trajectory:
        x = min(width - 1, int(t / t_max * (width - 1)))
        y = min(rows - 1, int(w / w_max * (rows - 1)))
        grid[rows - 1 - y][x] = "*"
    lines = [f"{w_max:7.0f} +" + "".join(grid[0])]
    for row in grid[1:-1]:
        lines.append("        |" + "".join(row))
    lines.append(f"{0:7.0f} +" + "".join(grid[-1]))
    lines.append("         " + "-" * width)
    lines.append(f"         0 s{' ' * (width - 14)}{t_max:.0f} s")
    return "\n".join(lines)


def main():
    sim = Simulator()
    config = DumbbellConfig(
        n_senders=1,
        bottleneck_bandwidth_bps=10_000_000.0,
        rtt_s=0.06,
        buffer_bdp_multiple=1.0,
    )
    topology = DumbbellTopology(sim, config)
    spec = FlowSpec(1, topology.senders[0].name, 1, topology.receivers[0].name, 443)
    TcpSink(sim, topology.receivers[0], spec)
    sender = CubicSender(sim, topology.senders[0], spec, 10**9)
    with flightrec.use() as rec:
        sender.start()
        sim.run(until=30.0)
        sender.abort()

    # Every transport record carries the window: one per whole-segment
    # change, plus the recovery, RTO and flow edges.
    trajectory = [
        (record["t"], record["cwnd"])
        for record in flightrec.iter_layer(rec.records(), "transport")
        if record["flow_id"] == spec.flow_id
    ]
    print(f"cwnd samples: {len(trajectory)}, "
          f"loss events: {sender.stats.fast_retransmits}, "
          f"timeouts: {sender.stats.timeouts}\n")
    print("congestion window (segments) over time — the Cubic sawtooth:\n")
    print(render(trajectory))


if __name__ == "__main__":
    main()
