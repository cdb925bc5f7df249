"""Robustness under injected faults: random loss and link outages.

The reliability invariant: whatever the network does (short of a
permanent partition), a TCP flow eventually delivers exactly its bytes,
in order, with no duplicates counted as goodput.
"""

import numpy as np
import pytest

from repro.simnet import (
    DumbbellConfig,
    DumbbellTopology,
    FlowSpec,
    Outage,
    RandomLoss,
    Simulator,
)
from repro.transport import CubicSender, NewRenoSender, TcpSink, VegasSender


def run_lossy_flow(loss_probability, seed, sender_cls=CubicSender,
                   flow_bytes=600_000, until=600.0):
    sim = Simulator()
    top = DumbbellTopology(
        sim, DumbbellConfig(n_senders=1, bottleneck_bandwidth_bps=8e6, rtt_s=0.06)
    )
    spec = FlowSpec(1, top.senders[0].name, 1, top.receivers[0].name, 443)
    sink = TcpSink(sim, top.receivers[0], spec)
    done = []
    sender = sender_cls(sim, top.senders[0], spec, flow_bytes, done.append)
    fault = RandomLoss(
        sim, top.bottleneck, loss_probability, np.random.default_rng(seed)
    )
    sender.start()
    sim.run(until=until)
    return sender, sink, fault, done


class TestRandomLossRobustness:
    @pytest.mark.parametrize("loss_probability", [0.01, 0.03, 0.08])
    @pytest.mark.parametrize("seed", [1, 2])
    def test_flow_completes_exactly(self, loss_probability, seed):
        sender, sink, fault, done = run_lossy_flow(loss_probability, seed)
        assert done, (
            f"flow failed to complete at p={loss_probability}, seed={seed}"
        )
        assert sink.received.contiguous_from(0) == 600_000
        assert sink.bytes_received == 600_000
        assert fault.packets_dropped > 0

    def test_heavy_loss_still_progresses(self):
        sender, sink, fault, done = run_lossy_flow(
            0.15, seed=3, flow_bytes=150_000, until=900.0
        )
        assert done
        assert sink.received.contiguous_from(0) == 150_000

    @pytest.mark.parametrize("sender_cls", [CubicSender, NewRenoSender, VegasSender])
    def test_all_flavours_survive_loss(self, sender_cls):
        sender, sink, fault, done = run_lossy_flow(
            0.03, seed=5, sender_cls=sender_cls, flow_bytes=300_000
        )
        assert done, sender_cls.flavour
        assert sink.received.contiguous_from(0) == 300_000

    def test_goodput_excludes_duplicates(self):
        sender, sink, fault, done = run_lossy_flow(0.05, seed=7)
        assert done
        # Retransmissions may duplicate-deliver; goodput must not count them.
        assert sink.bytes_received == 600_000
        assert sender.stats.bytes_sent >= 600_000


class TestOutageRobustness:
    def test_repeated_outages(self):
        sim = Simulator()
        top = DumbbellTopology(sim, DumbbellConfig(n_senders=1))
        spec = FlowSpec(1, top.senders[0].name, 1, top.receivers[0].name, 443)
        sink = TcpSink(sim, top.receivers[0], spec)
        done = []
        sender = CubicSender(sim, top.senders[0], spec, 2_000_000, done.append)
        Outage(sim, 0.5, 1.0, links=[top.bottleneck])
        Outage(sim, 3.0, 2.0, links=[top.bottleneck])
        sender.start()
        sim.run(until=300.0)
        assert done
        assert sink.received.contiguous_from(0) == 2_000_000
        assert sender.stats.timeouts >= 2

    def test_outage_on_ack_path(self):
        """Losing ACKs (reverse path) must not break delivery either."""
        sim = Simulator()
        top = DumbbellTopology(sim, DumbbellConfig(n_senders=1))
        spec = FlowSpec(1, top.senders[0].name, 1, top.receivers[0].name, 443)
        sink = TcpSink(sim, top.receivers[0], spec)
        done = []
        sender = CubicSender(sim, top.senders[0], spec, 1_000_000, done.append)
        Outage(sim, 0.4, 1.2, links=[top.reverse])
        sender.start()
        sim.run(until=300.0)
        assert done
        assert sink.received.contiguous_from(0) == 1_000_000

    def test_rto_backoff_during_outage(self):
        """During a long outage the RTO backs off exponentially instead of
        hammering the dead link."""
        sim = Simulator()
        top = DumbbellTopology(sim, DumbbellConfig(n_senders=1))
        spec = FlowSpec(1, top.senders[0].name, 1, top.receivers[0].name, 443)
        TcpSink(sim, top.receivers[0], spec)
        sender = CubicSender(sim, top.senders[0], spec, 1_000_000)
        Outage(sim, 0.3, 20.0, links=[top.bottleneck])
        sender.start()
        sim.run(until=15.0)
        # ~15 s into a dead link: without backoff there would be ~70
        # attempts at the 0.2 s floor; with doubling there are only a few.
        assert 1 <= sender.stats.timeouts <= 8
