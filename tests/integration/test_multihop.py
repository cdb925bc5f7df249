"""Integration tests on the multi-bottleneck parking-lot topology."""

from repro.experiments import run_phi_cubic
from repro.experiments.scenarios import ScenarioPreset
from repro.phi import REFERENCE_POLICY, SharingMode
from repro.simnet import (
    DumbbellConfig,
    FlowIdAllocator,
    FlowSpec,
    ParkingLotTopology,
    Simulator,
)
from repro.transport import CubicSender, TcpSink


class TestParkingLotFlows:
    def _launch(self, sim, topology, index, flow_bytes, flow_ids, done):
        spec = FlowSpec(
            flow_ids.next_id(),
            topology.senders[index].name,
            10_000 + index,
            topology.receivers[index].name,
            443,
        )
        sink = TcpSink(sim, topology.receivers[index], spec)
        sender = CubicSender(
            sim, topology.senders[index], spec, flow_bytes, done.append
        )
        sender.start()
        return sender, sink

    def test_concurrent_flows_all_complete(self):
        sim = Simulator()
        topology = ParkingLotTopology(sim, n_hops=3)
        flow_ids = FlowIdAllocator()
        done = []
        senders = []
        for i in range(3):
            sender, _sink = self._launch(sim, topology, i, 500_000, flow_ids, done)
            senders.append(sender)
        sim.run(until=120.0)
        assert len(done) == 3
        assert all(s.stats.completed for s in senders)

    def test_later_hops_aggregate_more_traffic(self):
        sim = Simulator()
        topology = ParkingLotTopology(sim, n_hops=3)
        flow_ids = FlowIdAllocator()
        done = []
        for i in range(3):
            self._launch(sim, topology, i, 300_000, flow_ids, done)
        sim.run(until=120.0)
        # Flow i enters at hop i, so hop 2 carries all three flows' bytes.
        bytes_per_hop = [link.bytes_transmitted for link in topology.hop_links]
        assert bytes_per_hop[2] > bytes_per_hop[1] > 0
        assert bytes_per_hop[2] > bytes_per_hop[0]

    def test_last_hop_is_the_bottleneck_under_load(self):
        sim = Simulator()
        topology = ParkingLotTopology(
            sim, n_hops=2, hop_bandwidth_bps=4_000_000.0
        )
        flow_ids = FlowIdAllocator()
        done = []
        senders = []
        for i in range(2):
            sender, _sink = self._launch(
                sim, topology, i, 10_000_000, flow_ids, done
            )
            senders.append(sender)
        sim.run(until=30.0)
        for sender in senders:
            sender.abort()
        # Both flows traverse the final hop; it sees the combined load, so
        # it moves the most bytes and is persistently congested.  Raw drop
        # *counts* are burst-shape dependent and not ordered across hops:
        # hop 0 absorbs flow 0's unsmoothed post-recovery bursts directly
        # from the sender, so a single window-sized dump there can out-drop
        # the shared bottleneck's steady trickle.
        drops = [link.queue.stats.dropped_packets for link in topology.hop_links]
        bytes_per_hop = [link.bytes_transmitted for link in topology.hop_links]
        assert bytes_per_hop[-1] > bytes_per_hop[0]
        assert drops[-1] > 0


class TestPhiOnLongRunningPreset:
    def test_phi_cubic_long_running_path(self):
        """run_phi_cubic must handle persistent-flow presets too."""
        preset = ScenarioPreset(
            name="phi-lr",
            config=DumbbellConfig(n_senders=6),
            workload=None,
            duration_s=15.0,
            description="",
        )
        result = run_phi_cubic(
            REFERENCE_POLICY, preset, SharingMode.IDEAL, seed=2
        )
        assert result.connections == 6
        assert result.metrics.throughput_mbps > 0
