"""Tests for TCP Cubic: parameters, window law, sweep grid."""

from dataclasses import replace

import pytest

from repro.simnet import DumbbellConfig, DumbbellTopology, FlowSpec, Simulator
from repro.transport import CubicParams, CubicSender, NewRenoSender, cubic_sweep_grid
from repro.transport.sink import TcpSink


def run_cubic(flow_bytes, params=None, config=None, until=200.0, **kwargs):
    sim = Simulator()
    cfg = config or DumbbellConfig(n_senders=1)
    top = DumbbellTopology(sim, cfg)
    spec = FlowSpec(1, top.senders[0].name, 10_000, top.receivers[0].name, 443)
    done = []
    TcpSink(sim, top.receivers[0], spec)
    sender = CubicSender(
        sim, top.senders[0], spec, flow_bytes, done.append, params=params, **kwargs
    )
    sender.start()
    sim.run(until=until)
    return sender, top, done


class TestCubicParams:
    def test_table1_defaults(self):
        params = CubicParams.default()
        assert params.window_init == 2.0
        assert params.initial_ssthresh == 65536.0
        assert params.beta == 0.2

    def test_validation(self):
        with pytest.raises(ValueError):
            CubicParams(window_init=0)
        with pytest.raises(ValueError):
            CubicParams(initial_ssthresh=1)
        with pytest.raises(ValueError):
            CubicParams(beta=0.0)
        with pytest.raises(ValueError):
            CubicParams(beta=1.0)

    @pytest.mark.parametrize("field", ["window_init", "initial_ssthresh"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    def test_non_finite_window_rejected(self, field, value):
        # Refused here, not mid-run in the sender's int() conversion.
        with pytest.raises(ValueError, match=field):
            CubicParams(**{field: value})

    def test_hashable_for_policy_caches(self):
        a = CubicParams(window_init=4, initial_ssthresh=64, beta=0.3)
        b = CubicParams(window_init=4, initial_ssthresh=64, beta=0.3)
        assert a == b and hash(a) == hash(b)

    def test_with_updates(self):
        params = replace(CubicParams.default(), beta=0.5)
        assert params.beta == 0.5
        assert params.window_init == 2.0
        with pytest.raises(ValueError, match="beta"):
            replace(params, beta=1.5)  # a copy is checked like a new one

    def test_as_dict(self):
        d = CubicParams.default().as_dict()
        assert set(d) == {"window_init", "initial_ssthresh", "beta"}


class TestSweepGrid:
    def test_table2_grid_size(self):
        grid = list(cubic_sweep_grid())
        # 8 ssthresh values x 8 window_init values x 9 betas.
        assert len(grid) == 8 * 8 * 9

    def test_table2_ranges(self):
        grid = list(cubic_sweep_grid())
        ssthreshes = {p.initial_ssthresh for p in grid}
        window_inits = {p.window_init for p in grid}
        betas = {p.beta for p in grid}
        assert min(ssthreshes) == 2 and max(ssthreshes) == 256
        assert min(window_inits) == 2 and max(window_inits) == 256
        assert min(betas) == pytest.approx(0.1)
        assert max(betas) == pytest.approx(0.9)

    def test_custom_ranges(self):
        grid = list(cubic_sweep_grid([4.0], [2.0], [0.2, 0.4]))
        assert len(grid) == 2


class TestCubicBehaviour:
    def test_flow_completes(self):
        sender, _, done = run_cubic(1_000_000)
        assert done and sender.stats.completed

    def test_beta_decrease_on_loss(self):
        sender, _, _ = run_cubic(10_000, params=CubicParams(beta=0.4))
        sender.cwnd = 100.0
        sender._on_loss_event()
        assert sender.cwnd == pytest.approx(60.0)
        assert sender.ssthresh == pytest.approx(60.0)

    def test_loss_starts_new_epoch(self):
        sender, _, _ = run_cubic(10_000)
        sender.cwnd = 50.0
        sender._on_loss_event()
        assert sender._epoch_start is None
        assert sender._w_max == pytest.approx(50.0)

    def test_cubic_target_concave_then_convex(self):
        sender, _, _ = run_cubic(10_000)
        sender._w_max = 100.0
        sender.cwnd = 80.0
        sender._begin_epoch()
        k = sender._k
        # Before K: below origin; at K: equal; after K: above.
        assert sender._cubic_target(k / 2, 0.0) < 100.0
        assert sender._cubic_target(k, 0.0) == pytest.approx(100.0)
        assert sender._cubic_target(k * 2, 0.0) > 100.0

    def test_small_ssthresh_slows_early_growth(self):
        fast, _, _ = run_cubic(400_000, params=CubicParams())
        slow, _, _ = run_cubic(
            400_000, params=CubicParams(initial_ssthresh=2.0)
        )
        assert fast.stats.duration < slow.stats.duration

    def test_larger_initial_window_speeds_short_flows(self):
        small, _, _ = run_cubic(30_000, params=CubicParams(window_init=2))
        large, _, _ = run_cubic(30_000, params=CubicParams(window_init=16))
        assert large.stats.duration < small.stats.duration

    def test_shallow_buffer_causes_cubic_epochs(self):
        config = DumbbellConfig(
            n_senders=1,
            bottleneck_bandwidth_bps=2_000_000.0,
            rtt_s=0.1,
            buffer_bdp_multiple=0.5,
        )
        sender, top, done = run_cubic(2_000_000, config=config, until=400.0)
        assert done
        assert top.bottleneck_queue.stats.dropped_packets > 0

    def test_timeout_event_resets_window(self):
        sender, _, _ = run_cubic(10_000)
        sender.cwnd = 40.0
        sender._on_timeout_event()
        assert sender.cwnd == 1.0
        assert sender._epoch_start is None


class TestNewReno:
    def test_flavour_name(self):
        assert NewRenoSender.flavour == "newreno"

    def test_flow_completes(self):
        sim = Simulator()
        top = DumbbellTopology(sim, DumbbellConfig(n_senders=1))
        spec = FlowSpec(1, top.senders[0].name, 1, top.receivers[0].name, 443)
        done = []
        TcpSink(sim, top.receivers[0], spec)
        sender = NewRenoSender(sim, top.senders[0], spec, 500_000, done.append)
        sender.start()
        sim.run(until=100.0)
        assert done
