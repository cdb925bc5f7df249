"""Shared fixtures for the sweep-runner test suite."""

import pytest

from repro.experiments.scenarios import ScenarioPreset
from repro.simnet.topology import DumbbellConfig
from repro.transport.cubic import cubic_sweep_grid
from repro.workload.onoff import OnOffConfig

#: A miniature preset so each point simulates in well under a second.
MINI_PRESET = ScenarioPreset(
    name="mini-resilience",
    config=DumbbellConfig(n_senders=3),
    workload=OnOffConfig(mean_on_bytes=60_000, mean_off_s=0.5),
    duration_s=2.0,
    description="tiny fault-path fixture",
)

#: Four grid points: ssthresh {2, 64} x beta {0.2, 0.7}.
MINI_GRID = list(
    cubic_sweep_grid(
        ssthresh_range=[2.0, 64.0],
        window_init_range=[4.0],
        beta_range=[0.2, 0.7],
    )
)


def flow_dict_with_samples(stats):
    """A flow as stored before records held a digest: every RTT sample."""
    from repro.runner.records import FlowRecord

    data = FlowRecord.from_stats(stats).to_dict()
    del data["rtt_count"], data["rtt_digest"]
    data["rtt_samples"] = list(stats.rtt_samples)
    return data


@pytest.fixture
def mini_preset():
    return MINI_PRESET


@pytest.fixture
def mini_grid():
    return list(MINI_GRID)


@pytest.fixture
def make_result():
    """Factory for synthetic :class:`PointResult` records."""
    from repro.metrics.summary import RunMetrics
    from repro.runner.records import FlowRecord, PointResult, rtt_digest
    from repro.transport.cubic import CubicParams

    def _make(key="k" * 64, seed=5, run_index=2, wall=1.0):
        flow = FlowRecord(
            flow_id=1,
            start_time=0.125,
            end_time=3.0000000000000004,
            bytes_goodput=123456,
            bytes_sent=130000,
            packets_sent=125,
            retransmits=3,
            timeouts=1,
            fast_retransmits=2,
            rtt_count=3,
            rtt_digest=rtt_digest((0.1501, 0.1502000000000003, 0.163)),
            min_rtt=0.1501,
            completed=True,
        )
        return PointResult(
            key=key,
            params=CubicParams(window_init=4.0, initial_ssthresh=16.0, beta=0.3),
            seed=seed,
            run_index=run_index,
            metrics=RunMetrics(
                throughput_mbps=11.7320508,
                queueing_delay_ms=42.1,
                loss_rate=0.0123,
                connections=9,
                total_bytes=999_999,
                mean_rtt_ms=151.3,
                mean_utilization=0.87,
            ),
            flows=(flow,),
            bottleneck_drop_rate=0.0123,
            mean_utilization=0.87,
            duration_s=60.0,
            events_processed=123_456,
            wall_seconds=wall,
        )

    return _make
