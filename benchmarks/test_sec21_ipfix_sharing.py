"""Section 2.1: the opportunity for sharing, from IPFIX data.

Paper: with 1-in-4096 packet sampling and (/24 subnet, 1-minute)
aggregation, "50% of the flows share the WAN path with at least 5 other
flows while 12% share it with at least 100 other flows", and the true
sharing without sub-sampling is much higher.
"""

import numpy as np
from bench_common import report, run_once, scaled

from repro.ipfix import (
    EgressTrafficModel,
    IpfixCollector,
    IpfixSampler,
    SampledHeader,
    sharing_ccdf,
    sharing_stats,
)


def _run_pipeline():
    rng = np.random.default_rng(21)
    model = EgressTrafficModel(rng)

    sampled_collector = IpfixCollector()
    full_collector = IpfixCollector()
    sampler = IpfixSampler(rng)

    minutes = scaled(3, 15)
    for batch in model.generate(minutes):
        sampled_collector.ingest_many(sampler.sample_flows(batch))
        # Ground truth (no sub-sampling): every flow lands in its slot.
        for flow in batch:
            full_collector.ingest(SampledHeader(flow.four_tuple, flow.start_s))
    return sampler, sampled_collector, full_collector


def test_sec21_ipfix_sharing(benchmark, capfd):
    sampler, sampled, full = run_once(benchmark, _run_pipeline)

    stats = sharing_stats(sampled)
    truth = sharing_stats(full)
    ccdf = sharing_ccdf(sampled)

    with report(capfd, "Section 2.1: flow sharing per /24 + minute (IPFIX)"):
        print(f"sampled packets       : {sampler.packets_sampled} "
              f"(effective rate 1/{sampler.effective_rate:.0f})")
        print(f"flow observations     : {stats.observations}")
        print(f"{'threshold':>10s} {'sampled':>9s} {'paper':>7s} {'no-sampling':>12s}")
        paper = {5: 0.50, 100: 0.12}
        for threshold in (1, 5, 10, 50, 100, 500):
            line = (f"{'>= ' + str(threshold):>10s} "
                    f"{stats.fraction_at_least(threshold):>9.2f} "
                    f"{paper.get(threshold, float('nan')):>7.2f} "
                    f"{truth.fraction_at_least(threshold):>12.2f}")
            print(line)
        print(f"median companions (sampled): {stats.median_companions:.0f}")

    # Paper's headline fractions, within a band around 0.50 / 0.12.
    assert 0.35 <= stats.fraction_at_least(5) <= 0.65
    assert 0.05 <= stats.fraction_at_least(100) <= 0.25
    # "The actual sharing (without the sub-sampling) is likely to be much
    # higher."
    assert truth.fraction_at_least(5) > stats.fraction_at_least(5)
    assert truth.fraction_at_least(100) > stats.fraction_at_least(100)
    # The sampler really is ~1-in-4096.
    assert 3000 < sampler.effective_rate < 5500
