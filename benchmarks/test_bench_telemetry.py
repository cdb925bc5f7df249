"""Telemetry overhead benchmark: the table-3 hot path, on vs off.

The observability layer promises a strict no-op fast path: with no
session enabled, instrumented code pays one module-global lookup and an
``enabled`` check per *run* (not per event), so the simulation should
time the same with the layer compiled in as the pre-telemetry engine.
With a session enabled it still only pays per-run and per-sample-tick
costs, so the budget is a few percent.

Appends wall times and the on/off ratio to ``BENCH_telemetry.json`` so
the overhead trajectory accumulates commit over commit.  The hard
assertion is deliberately loose (CI boxes are noisy); the recorded
numbers are the real deliverable.
"""

import os

from bench_common import report, run_once, scaled, time_best_of

from repro import telemetry
from repro.experiments.scenarios import TABLE3_REMY, run_cubic_fixed
from repro.runner import append_bench_entry, bench_entry
from repro.transport.cubic import CubicParams

BENCH_JSON = os.path.join(
    os.path.dirname(os.path.dirname(__file__)), "BENCH_telemetry.json"
)

PARAMS = CubicParams(window_init=4.0, initial_ssthresh=64.0, beta=0.7)


def test_bench_telemetry_overhead(benchmark, capfd):
    duration_s = scaled(20.0, None)
    rounds = scaled(3, 5)

    def run_disabled():
        return run_cubic_fixed(PARAMS, TABLE3_REMY, seed=1, duration_s=duration_s)

    def run_enabled():
        with telemetry.use() as tele:
            result = run_cubic_fixed(
                PARAMS, TABLE3_REMY, seed=1, duration_s=duration_s
            )
            snapshot = tele.registry.snapshot()
        return result, snapshot

    # Warm caches/JIT-free interpreter state once before timing anything.
    baseline = run_disabled()

    wall_disabled, _ = time_best_of(rounds, run_disabled)
    wall_enabled, (instrumented, snapshot) = time_best_of(rounds, run_enabled)
    run_once(benchmark, run_disabled)

    # Telemetry observes without perturbing: identical simulation.
    assert instrumented.events_processed == baseline.events_processed
    assert instrumented.metrics == baseline.metrics
    # And the disabled path really collected nothing.
    assert not telemetry.session().enabled
    assert snapshot["counters"]["sim.events"] == float(baseline.events_processed)

    ratio = wall_enabled / max(wall_disabled, 1e-9)
    events_per_second = baseline.events_processed / max(wall_disabled, 1e-9)

    entry = bench_entry(
        "bench-telemetry-overhead",
        gate=("overhead_ratio", ratio, False),
        extra={
            "duration_s": duration_s,
            "rounds": rounds,
            "wall_disabled_s": wall_disabled,
            "wall_enabled_s": wall_enabled,
            "overhead_ratio": ratio,
            "events_processed": baseline.events_processed,
            "events_per_second_disabled": events_per_second,
            "metrics_collected": len(snapshot["counters"])
            + len(snapshot["gauges"])
            + len(snapshot["histograms"]),
        },
    )
    append_bench_entry(BENCH_JSON, entry)

    with report(capfd, "Telemetry overhead: table-3 hot path, on vs off"):
        print(f"sim duration: {duration_s or TABLE3_REMY.duration_s:.0f} s  "
              f"events: {baseline.events_processed:,}  best of {rounds}")
        print(f"{'telemetry':<10s} {'wall (s)':>10s} {'events/s':>14s}")
        print(f"{'off':<10s} {wall_disabled:>10.3f} {events_per_second:>14,.0f}")
        print(f"{'on':<10s} {wall_enabled:>10.3f} "
              f"{baseline.events_processed / max(wall_enabled, 1e-9):>14,.0f}")
        print(f"overhead: {(ratio - 1.0) * 100:+.2f}%   "
              f"metric series collected: {entry['metrics_collected']}")
        print(f"trajectory: {BENCH_JSON}")

    # Budget: <=2% on a quiet box; allow generous headroom for CI noise.
    assert ratio <= 1.25, (
        f"telemetry overhead {ratio:.3f}x exceeds the noise-tolerant cap"
    )
