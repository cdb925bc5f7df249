"""Integration: RED queue with live TCP traffic."""

from functools import lru_cache

import numpy as np

from repro.simnet import (
    DumbbellConfig,
    DumbbellTopology,
    FlowIdAllocator,
    LinkMonitor,
    RedQueue,
    RngStreams,
    Simulator,
)
from repro.transport import CubicSender
from repro.workload import launch_long_running_flows


@lru_cache(maxsize=None)  # one run per queue, shared by the tests below
def run_with_queue(make_queue, n=8, duration=40.0):
    sim = Simulator()
    config = DumbbellConfig(n_senders=n)
    top = DumbbellTopology(sim, config)
    if make_queue is not None:
        top.bottleneck.queue = make_queue(config, sim)
    # Queue depth every 100 ms, the same reading the experiments take.
    monitor = LinkMonitor(sim, top.bottleneck)
    monitor.start()

    def factory(sim_, host, spec, size, done):
        return CubicSender(sim_, host, spec, size, done)

    pairs = [(top.senders[i], top.receivers[i]) for i in range(n)]
    flows = launch_long_running_flows(
        sim, pairs, factory, FlowIdAllocator(), RngStreams(4).stream("lr")
    )
    sim.run(until=duration)
    stats = [f.finish() for f in flows]
    queue = top.bottleneck.queue
    samples = monitor.samples
    mean_occupancy = sum(sample.queue_bytes for sample in samples) / len(samples)
    goodput = sum(s.bytes_goodput for s in stats) * 8 / duration
    return queue, mean_occupancy, goodput, config


def make_red(config, sim):
    return RedQueue(
        config.buffer_bytes,
        lambda: sim.now,
        np.random.default_rng(0),
        min_thresh_bytes=0.1 * config.buffer_bytes,
        max_thresh_bytes=0.4 * config.buffer_bytes,
    )


class TestRedWithTcp:
    def test_red_keeps_average_queue_below_droptail(self):
        __, droptail_occupancy, droptail_goodput, config = run_with_queue(None)
        red_queue, red_occupancy, red_goodput, __ = run_with_queue(make_red)
        assert red_occupancy < droptail_occupancy
        assert red_queue.early_drops > 0
        # RED trades a little throughput for a much shorter queue, but
        # must not collapse the link.
        assert red_goodput > 0.5 * droptail_goodput

    def test_red_average_tracks_between_thresholds(self):
        red_queue, occupancy, __, config = run_with_queue(make_red)
        # Under persistent overload the EWMA average should sit in the
        # vicinity of the RED control band, far below the hard capacity.
        assert red_queue.avg_queue_bytes < 0.8 * config.buffer_bytes
