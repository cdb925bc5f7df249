"""Integration tests: conservation and the Remy pipeline end-to-end.

These are slower than unit tests (each runs full packet simulations).
The paper-shaped claims (Phi's benefit over default Cubic, Figures 2b
and 2c) are benches: ``benchmarks/test_paper_shapes.py``.
"""

from repro.experiments import run_cubic_fixed, run_remy_scenario
from repro.experiments.scenarios import ScenarioPreset
from repro.phi import SharingMode
from repro.remy import WhiskerTable
from repro.remy.whisker import Action
from repro.simnet import (
    DumbbellConfig,
    DumbbellTopology,
    FlowSpec,
    Simulator,
)
from repro.transport import CubicParams, CubicSender, TcpSink
from repro.workload import OnOffConfig

LOADED = ScenarioPreset(
    name="loaded",
    config=DumbbellConfig(n_senders=12),
    workload=OnOffConfig(mean_on_bytes=400_000, mean_off_s=0.5),
    duration_s=25.0,
    description="moderately loaded integration preset",
)


class TestConservation:
    def test_bytes_conserved_through_bottleneck(self):
        """Everything the sink receives crossed the bottleneck exactly once
        (plus retransmits); drops + deliveries = arrivals."""
        sim = Simulator()
        config = DumbbellConfig(
            n_senders=2,
            bottleneck_bandwidth_bps=4_000_000.0,
            rtt_s=0.1,
            buffer_bdp_multiple=1.0,
        )
        top = DumbbellTopology(sim, config)
        specs = []
        sinks = []
        senders = []
        for i in range(2):
            spec = FlowSpec(i + 1, top.senders[i].name, 1, top.receivers[i].name, 443)
            sinks.append(TcpSink(sim, top.receivers[i], spec))
            sender = CubicSender(sim, top.senders[i], spec, 800_000)
            senders.append(sender)
            sender.start()
            specs.append(spec)
        sim.run(until=120.0)
        assert all(s.finished for s in senders)
        stats = top.bottleneck_queue.stats
        q_in = stats.enqueued_packets + stats.dropped_packets
        # Direct transmissions (queue empty) bypass enqueue; account via
        # the link's packet counter instead.
        delivered = top.bottleneck.packets_transmitted
        assert delivered + stats.dropped_packets >= q_in
        for sink, spec in zip(sinks, specs):
            assert sink.received.contiguous_from(0) == 800_000

    def test_sum_of_goodput_under_capacity(self):
        result = run_cubic_fixed(CubicParams.default(), LOADED, seed=0)
        total_bits = sum(
            s.bytes_goodput * 8
            for sender in result.per_sender_stats
            for s in sender
        )
        assert total_bits <= 15e6 * LOADED.duration_s * 1.02


class TestRemyIntegration:
    def _decent_table(self, dimensions=WhiskerTable.CLASSIC_DIMENSIONS):
        table = WhiskerTable(dimensions)
        table.whiskers[0].action = Action(
            window_increment=3.0, window_multiple=1.0, intersend_s=0.004
        )
        return table

    def test_remy_scenario_all_modes(self):
        preset = ScenarioPreset(
            name="remy-mini",
            config=DumbbellConfig(n_senders=4),
            workload=OnOffConfig(mean_on_bytes=80_000, mean_off_s=0.4),
            duration_s=15.0,
            description="",
        )
        classic = self._decent_table()
        phi = self._decent_table(WhiskerTable.PHI_DIMENSIONS)
        for mode, table in [
            (SharingMode.NONE, classic),
            (SharingMode.PRACTICAL, phi),
            (SharingMode.IDEAL, phi),
        ]:
            result = run_remy_scenario(table, mode, preset, seed=0)
            assert result.connections > 0, mode
            assert result.metrics.throughput_mbps > 0, mode

    def test_remy_keeps_queue_short(self):
        """Remy's paced, learned control holds queueing delay far below
        default Cubic's slow-start overshoot (Table 3's delay column)."""
        preset = ScenarioPreset(
            name="remy-vs-cubic",
            config=DumbbellConfig(n_senders=8),
            workload=OnOffConfig(mean_on_bytes=100_000, mean_off_s=0.5),
            duration_s=20.0,
            description="",
        )
        remy = run_remy_scenario(self._decent_table(), SharingMode.NONE, preset, seed=0)
        cubic = run_cubic_fixed(CubicParams.default(), preset, seed=0)
        assert remy.metrics.queueing_delay_ms < cubic.metrics.queueing_delay_ms
