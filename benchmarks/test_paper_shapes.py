"""Paper shapes on small runs: Phi beats the defaults on power, and the
mechanisms behind Figures 2b and 2c.  They assert and print nothing."""

from repro.experiments import run_cubic_fixed, run_phi_cubic
from repro.experiments.scenarios import ScenarioPreset
from repro.phi import REFERENCE_POLICY, SharingMode
from repro.simnet import DumbbellConfig
from repro.transport import CubicParams
from repro.workload import OnOffConfig

LOADED = ScenarioPreset(
    "loaded", DumbbellConfig(n_senders=12),
    OnOffConfig(mean_on_bytes=400_000, mean_off_s=0.5), 25.0,
    "moderately loaded integration preset",
)


class TestPaperShapes:
    def test_phi_beats_default_cubic_on_power(self):
        """The headline claim: context-driven parameters beat the static
        defaults on the P_l objective (both sharing modes)."""
        base = run_cubic_fixed(CubicParams.default(), LOADED, seed=3)
        practical = run_phi_cubic(
            REFERENCE_POLICY, LOADED, SharingMode.PRACTICAL, seed=3
        )
        ideal = run_phi_cubic(REFERENCE_POLICY, LOADED, SharingMode.IDEAL, seed=3)
        assert practical.metrics.power_l > base.metrics.power_l
        assert ideal.metrics.power_l > base.metrics.power_l

    def test_tuned_ssthresh_cuts_queueing_delay_under_load(self):
        """Figure 2b's mechanism: a bounded initial ssthresh stops slow
        start from flooding the 5xBDP buffer."""
        default = run_cubic_fixed(CubicParams.default(), LOADED, seed=1)
        tuned = run_cubic_fixed(
            CubicParams(window_init=8, initial_ssthresh=32, beta=0.3),
            LOADED,
            seed=1,
        )
        assert tuned.metrics.queueing_delay_ms < default.metrics.queueing_delay_ms

    def test_beta_effect_on_long_running_flows(self):
        """Figure 2c: with persistent connections, a larger beta (sharper
        backoff) yields significantly lower queueing delay."""
        preset = ScenarioPreset(
            name="fig2c-mini",
            config=DumbbellConfig(n_senders=16),
            workload=None,
            duration_s=30.0,
            description="",
        )
        gentle = run_cubic_fixed(CubicParams(beta=0.1), preset, seed=2)
        sharp = run_cubic_fixed(CubicParams(beta=0.8), preset, seed=2)
        assert sharp.metrics.queueing_delay_ms < gentle.metrics.queueing_delay_ms

    def test_window_init_irrelevant_for_long_flows(self):
        """Figure 2c: 'varying the initial window size or the slow start
        threshold does not have much impact' on persistent flows."""
        # 60 s, not 30: the Ha et al. TCP-friendly window (anchored at the
        # epoch-start window) makes Cubic more aggressive early, so the
        # initial-window transient takes longer to wash out of the mean.
        preset = ScenarioPreset(
            name="fig2c-mini2",
            config=DumbbellConfig(n_senders=8),
            workload=None,
            duration_s=60.0,
            description="",
        )
        small = run_cubic_fixed(CubicParams(window_init=2), preset, seed=4)
        large = run_cubic_fixed(CubicParams(window_init=64), preset, seed=4)
        ratio = small.metrics.throughput_mbps / max(
            large.metrics.throughput_mbps, 1e-9
        )
        assert 0.8 < ratio < 1.25
