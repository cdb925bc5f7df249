#!/usr/bin/env python3
"""Outage war room: cross-client diagnosis and user-facing prediction.

The paper's Section 3.4/3.5 story end to end:

1. A global cloud service's request telemetry (sliced by client AS,
   metro, and service) suffers a 2-hour unreachability event on one ISP
   in one metro — invisible to any single client, obvious in aggregate.
2. The provider's detector finds the dips, localizes the event to the
   (AS, metro) pair, and names the affected population.
3. Meanwhile the performance predictor — fed by other clients'
   observations — warns users in the affected location before they place
   a VoIP call.

Run:  python examples/outage_war_room.py
"""

import numpy as np

from repro.diagnosis import (
    BIN_MINUTES,
    BINS_PER_DAY,
    OutageSpec,
    TelemetryGenerator,
    UnreachabilityDetector,
    localize,
    slice_keys,
)
from repro.diagnosis.events import ASES, METROS, SERVICES
from repro.prediction import (
    ObservationStore,
    PerfObservation,
    PerformancePredictor,
)


def run_diagnosis():
    train_bins = 3 * BINS_PER_DAY
    bins_2h = 120 // BIN_MINUTES
    outage = OutageSpec(
        start_bin=train_bins + 150,
        duration_bins=bins_2h,
        severity=0.9,
        asn="isp-c",
        metro="lon",
    )
    print("== Step 1: telemetry with a hidden outage ==")
    print(f"{len(slice_keys())} telemetry slices "
          f"({len(ASES)} ASes x {len(METROS)} metros x "
          f"{len(SERVICES)} services), 5-minute bins")
    print("injected: isp-c in lon, 2 hours, 90% of requests lost\n")

    generator = TelemetryGenerator(np.random.default_rng(99), [outage])
    series = generator.generate(train_bins + BINS_PER_DAY)

    print("== Step 2: detect and localize ==")
    detector = UnreachabilityDetector(BINS_PER_DAY)
    dips = detector.detect(series, train_bins)
    print(f"per-slice dips flagged: {len(dips)}")
    events = localize(dips, slice_keys())
    for event in events:
        hours = event.duration_bins * BIN_MINUTES / 60
        print(f"localized event: {event.describe()}  "
              f"(~{hours:.1f} h, mean drop {event.mean_drop_fraction:.0%}, "
              f"{event.affected_slices} slices affected)")
    print()
    return events


def run_prediction(events):
    print("== Step 3: warn users before they call ==")
    store = ObservationStore()
    rng = np.random.default_rng(7)
    # Healthy locations: the provider's other connections look fine.
    for i in range(300):
        store.record(
            PerfObservation(("isp-a", "nyc"), float(i),
                            float(rng.lognormal(np.log(12), 0.4)), 55.0, 0.002)
        )
    # The outage location: surviving probes see terrible loss and RTT.
    for i in range(60):
        store.record(
            PerfObservation(("isp-c", "lon"), float(i), 0.4, 700.0, 0.30)
        )

    predictor = PerformancePredictor(store)
    for location in [("isp-a", "nyc"), ("isp-c", "lon")]:
        call = predictor.predict_call_quality(location)
        download = predictor.predict_download_time(location, 50_000_000)
        verdict = "OK to call" if call.acceptable else "HOLD OFF — poor quality expected"
        print(f"  {location[0]}/{location[1]}: MOS {call.mos:.2f} -> {verdict}; "
              f"50 MB download ~{download.expected_seconds:.0f}s "
              f"[{call.confidence.value} confidence]")


def main():
    events = run_diagnosis()
    run_prediction(events)


if __name__ == "__main__":
    main()
