"""Figure 5: an unreachability event localized to an ISP in a metro.

Paper: "Figure 5 shows an unreachability event detected in the context
of a large global-scale cloud provider, that was localized to an ISP
network on a particular metro" and "lasted for around 2 hours".

The bench injects exactly such an event into the synthetic telemetry,
runs the detection + localization pipeline, and prints the normalized
volume series of the affected slice (the figure's curve).
"""

import numpy as np
from bench_common import report, run_once, scaled

from repro.diagnosis import (
    BIN_MINUTES,
    BINS_PER_DAY,
    OutageSpec,
    TelemetryGenerator,
    UnreachabilityDetector,
    localize,
    slice_keys,
)

OUTAGE_ASN = "isp-a"
OUTAGE_METRO = "nyc"


def _run_pipeline():
    train_bins = scaled(2, 7) * BINS_PER_DAY
    bins_2h = 120 // BIN_MINUTES
    outage = OutageSpec(
        start_bin=train_bins + 80,
        duration_bins=bins_2h,
        severity=0.92,
        asn=OUTAGE_ASN,
        metro=OUTAGE_METRO,
    )
    generator = TelemetryGenerator(np.random.default_rng(55), [outage])
    series = generator.generate(train_bins + BINS_PER_DAY)
    detector = UnreachabilityDetector(BINS_PER_DAY)
    dips = detector.detect(series, train_bins)
    events = localize(dips, slice_keys())
    return outage, series, dips, events, train_bins


def test_fig5_unreachability_event(benchmark, capfd):
    outage, series, dips, events, train_bins = run_once(
        benchmark, _run_pipeline
    )

    with report(capfd, "Figure 5: unreachability event detection + localization"):
        print(f"injected : asn={OUTAGE_ASN}, metro={OUTAGE_METRO}, "
              f"bins [{outage.start_bin}, {outage.end_bin}) "
              f"({outage.duration_bins * BIN_MINUTES} minutes), "
              f"severity {outage.severity:.0%}")
        print(f"slice dips detected: {len(dips)}")
        for event in events:
            print(f"detected : {event.describe()}, "
                  f"bins [{event.start_bin}, {event.end_bin}) "
                  f"({event.duration_bins * BIN_MINUTES} minutes), "
                  f"mean drop {event.mean_drop_fraction:.0%}, "
                  f"{event.affected_slices} slices")
        # The figure's curve: affected-slice volume around the event,
        # normalized to the healthy mean, rendered as ASCII.
        key = (OUTAGE_ASN, OUTAGE_METRO, "voip")
        window = series[key][outage.start_bin - 12 : outage.end_bin + 12]
        healthy = np.mean(series[key][train_bins : outage.start_bin - 12])
        print("\nrequest volume (affected slice, '#' = 10% of normal):")
        for offset, value in enumerate(window):
            bars = int(round(value / healthy * 10))
            bin_index = outage.start_bin - 12 + offset
            flag = " <- outage" if outage.affects(key, bin_index) else ""
            print(f"  bin {bin_index:>4d} {'#' * bars}{flag}")

    assert len(events) == 1, "exactly one event expected"
    event = events[0]
    assert event.asn == OUTAGE_ASN
    assert event.metro == OUTAGE_METRO
    assert event.service is None, "event spans services (network-level)"
    # Duration recovered to within a couple of bins of the 2 hours.
    assert abs(event.duration_bins - outage.duration_bins) <= 2
    assert event.mean_drop_fraction > 0.7
