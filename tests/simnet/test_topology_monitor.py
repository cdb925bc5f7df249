"""Tests for topology builders, link monitor, flow tracker, RNG streams."""

import pytest

from repro.simnet import (
    ActiveFlowTracker,
    DumbbellConfig,
    DumbbellTopology,
    LinkMonitor,
    ParkingLotTopology,
    RngStreams,
    Simulator,
    exponential,
    make_data_packet,
)


class TestDumbbellConfig:
    def test_defaults_are_paper_table3(self):
        cfg = DumbbellConfig()
        assert cfg.n_senders == 8
        assert cfg.bottleneck_bandwidth_bps == 15e6
        assert cfg.rtt_s == pytest.approx(0.150)
        assert cfg.buffer_bdp_multiple == 5.0

    def test_delay_budget_adds_up(self):
        cfg = DumbbellConfig(rtt_s=0.2, access_delay_fraction=0.1)
        total = cfg.bottleneck_delay_s + 2 * cfg.access_delay_s
        assert total == pytest.approx(cfg.one_way_delay_s)

    def test_invalid_configs_rejected(self):
        with pytest.raises(ValueError):
            DumbbellConfig(n_senders=0)
        with pytest.raises(ValueError):
            DumbbellConfig(rtt_s=0)
        with pytest.raises(ValueError):
            DumbbellConfig(access_delay_fraction=0.6)

    @pytest.mark.parametrize(
        "field",
        ["rtt_s", "bottleneck_bandwidth_bps", "buffer_bdp_multiple", "access_bandwidth_bps"],
    )
    @pytest.mark.parametrize("value", [float("nan"), float("inf"), -1.0, 0.0])
    def test_non_positive_or_non_finite_inputs_rejected(self, field, value):
        # Each would otherwise fail mid-run, or run on as a 1-byte buffer.
        with pytest.raises(ValueError, match=field):
            DumbbellConfig(**{field: value})


class TestDumbbellTopology:
    def test_host_counts(self):
        sim = Simulator()
        top = DumbbellTopology(sim, DumbbellConfig(n_senders=5))
        assert len(top.senders) == 5
        assert len(top.receivers) == 5

    def test_forward_path_traverses_bottleneck(self):
        sim = Simulator()
        top = DumbbellTopology(sim, DumbbellConfig(n_senders=2))
        received = []
        top.receivers[0].set_default_handler(lambda p: received.append(p))
        packet = make_data_packet(1, top.senders[0].name, top.receivers[0].name, 0, 1000)
        top.senders[0].send(packet)
        sim.run()
        assert len(received) == 1
        assert top.bottleneck.packets_transmitted == 1

    def test_reverse_path_traverses_reverse_link(self):
        sim = Simulator()
        top = DumbbellTopology(sim, DumbbellConfig(n_senders=2))
        received = []
        top.senders[1].set_default_handler(lambda p: received.append(p))
        packet = make_data_packet(2, top.receivers[1].name, top.senders[1].name, 0, 40)
        top.receivers[1].send(packet)
        sim.run()
        assert len(received) == 1
        assert top.reverse.packets_transmitted == 1

    def test_end_to_end_delay_close_to_half_rtt(self):
        sim = Simulator()
        cfg = DumbbellConfig(n_senders=1, rtt_s=0.150)
        top = DumbbellTopology(sim, cfg)
        arrival = []
        top.receivers[0].set_default_handler(lambda p: arrival.append(sim.now))
        top.senders[0].send(
            make_data_packet(1, top.senders[0].name, top.receivers[0].name, 0, 1000)
        )
        sim.run()
        # One-way propagation is rtt/2; serialization adds a bit on top.
        assert arrival[0] == pytest.approx(0.075, rel=0.05)

    def test_pair_accessor(self):
        sim = Simulator()
        top = DumbbellTopology(sim, DumbbellConfig(n_senders=3))
        pair = top.pair(2)
        assert pair.sender is top.senders[2]
        assert pair.receiver is top.receivers[2]

    def test_links_map_contains_bottleneck(self):
        sim = Simulator()
        top = DumbbellTopology(sim)
        assert "bottleneck" in top.links


class TestParkingLot:
    def test_chain_delivery(self):
        sim = Simulator()
        top = ParkingLotTopology(sim, n_hops=3)
        got = []
        top.receivers[0].set_default_handler(lambda p: got.append(p))
        top.senders[0].send(
            make_data_packet(1, top.senders[0].name, top.receivers[0].name, 0, 500)
        )
        sim.run()
        assert len(got) == 1

    def test_invalid_hops(self):
        with pytest.raises(ValueError):
            ParkingLotTopology(Simulator(), n_hops=0)


class TestLinkMonitor:
    def test_utilization_sampling(self):
        sim = Simulator()
        top = DumbbellTopology(sim, DumbbellConfig(n_senders=1))
        monitor = LinkMonitor(sim, top.bottleneck, period_s=0.05)
        monitor.start()
        received = []
        top.receivers[0].set_default_handler(received.append)
        # Saturate the bottleneck for ~0.5 s.
        for i in range(70):
            top.senders[0].send(
                make_data_packet(
                    1, top.senders[0].name, top.receivers[0].name, i, 1400
                )
            )
        sim.run(until=0.5)
        busy = [s for s in monitor.samples if s.utilization > 0.5]
        assert busy, "expected some high-utilization samples"
        assert all(0.0 <= s.utilization <= 1.0 for s in monitor.samples)

    def test_idle_link_zero_utilization(self):
        sim = Simulator()
        top = DumbbellTopology(sim)
        monitor = LinkMonitor(sim, top.bottleneck, period_s=0.1)
        monitor.start()
        sim.run(until=1.0)
        assert monitor.mean_utilization() == 0.0
        assert monitor.current_utilization() == 0.0

    def test_start_idempotent(self):
        sim = Simulator()
        top = DumbbellTopology(sim)
        monitor = LinkMonitor(sim, top.bottleneck, period_s=0.1)
        monitor.start()
        monitor.start()
        sim.run(until=0.35)
        times = [s.time for s in monitor.samples]
        assert times == sorted(set(times)), "double-start must not double-sample"

    def test_invalid_period(self):
        sim = Simulator()
        top = DumbbellTopology(sim)
        with pytest.raises(ValueError):
            LinkMonitor(sim, top.bottleneck, period_s=0)

    def test_sample_times_stay_on_grid_without_drift(self):
        # 0.1 is not exactly representable in binary; repeatedly adding it
        # accumulates error, whereas epoch + k*period rounds once per tick.
        sim = Simulator()
        top = DumbbellTopology(sim)
        monitor = LinkMonitor(sim, top.bottleneck, period_s=0.1, history=20_000)
        monitor.start()
        sim.run(until=1000.0)
        times = [s.time for s in monitor.samples]
        assert len(times) >= 9_999
        for k, t in enumerate(times, start=1):
            assert t == k * 0.1, f"sample {k} drifted: {t!r} != {k * 0.1!r}"

    def test_grid_is_anchored_at_start_epoch(self):
        sim = Simulator()
        top = DumbbellTopology(sim)
        monitor = LinkMonitor(sim, top.bottleneck, period_s=0.25)
        sim.schedule_at(1.0, monitor.start)
        sim.run(until=2.6)
        times = [s.time for s in monitor.samples]
        assert times == [1.0 + k * 0.25 for k in range(1, len(times) + 1)]
        assert times, "monitor started mid-run must still sample"

    def test_telemetry_histograms_and_drop_counter(self):
        from repro import telemetry

        with telemetry.use() as tele:
            sim = Simulator()
            top = DumbbellTopology(sim, DumbbellConfig(n_senders=1))
            monitor = LinkMonitor(sim, top.bottleneck, period_s=0.05)
            monitor.start()
            for i in range(70):
                top.senders[0].send(
                    make_data_packet(
                        1, top.senders[0].name, top.receivers[0].name, i, 1400
                    )
                )
            sim.run(until=0.5)
            snapshot = tele.registry.snapshot()
        name = top.bottleneck.name
        utilization = snapshot["histograms"][f"link.utilization{{link={name}}}"]
        assert utilization["count"] == len(monitor.samples)
        depth = snapshot["histograms"][f"link.queue_depth_pkts{{link={name}}}"]
        assert depth["count"] == len(monitor.samples)


class TestActiveFlowTracker:
    def test_counts(self):
        tracker = ActiveFlowTracker()
        tracker.flow_started(1, 0.0)
        tracker.flow_started(2, 1.0)
        assert tracker.active_flows == 2
        tracker.flow_finished(1, 2.0)
        assert tracker.active_flows == 1
        assert tracker.peak_active == 2
        assert tracker.total_flows == 2

    def test_unbalanced_finish_raises(self):
        tracker = ActiveFlowTracker()
        with pytest.raises(RuntimeError):
            tracker.flow_finished(1, 0.0)

    def test_mean_active(self):
        tracker = ActiveFlowTracker()
        tracker.flow_started(1, 0.0)
        tracker.flow_finished(1, 1.0)
        tracker.flow_started(2, 1.0)
        tracker.flow_finished(2, 2.0)
        assert tracker.mean_active(0.0, 2.0) == pytest.approx(1.0)


class TestRngStreams:
    def test_same_name_same_stream(self):
        rngs = RngStreams(1)
        assert rngs.stream("a") is rngs.stream("a")

    def test_reproducible_across_instances(self):
        a = RngStreams(5).stream("x").random(4)
        b = RngStreams(5).stream("x").random(4)
        assert list(a) == list(b)

    def test_different_names_differ(self):
        rngs = RngStreams(5)
        a = rngs.stream("x").random(4)
        b = rngs.stream("y").random(4)
        assert list(a) != list(b)

    def test_different_seeds_differ(self):
        a = RngStreams(1).stream("x").random(4)
        b = RngStreams(2).stream("x").random(4)
        assert list(a) != list(b)

    def test_spawn_independent(self):
        parent = RngStreams(3)
        child = parent.spawn("child")
        a = parent.stream("s").random(3)
        b = child.stream("s").random(3)
        assert list(a) != list(b)

    def test_exponential_helper(self):
        rng = RngStreams(0).stream("e")
        draws = [exponential(rng, 2.0) for _ in range(1000)]
        assert all(d >= 0 for d in draws)
        assert sum(draws) / len(draws) == pytest.approx(2.0, rel=0.2)
        assert exponential(rng, 0.0) == 0.0
