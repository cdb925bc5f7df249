"""Simcheck overhead benchmark: the table-3 hot path, checked vs not.

The invariant layer promises two things on the hot path:

- **zero overhead disabled** — an unchecked run builds a plain
  :class:`~repro.simnet.engine.Simulator` and unwrapped senders; the only
  cost is one ``simcheck.enabled()`` lookup per run;
- **bounded overhead enabled** — the checked engine re-runs the same
  event loop with per-event clock checks, periodic heap scans, and
  per-ACK TCP invariant checks, with a <= 2x budget on the table-3 hot
  path; the differential oracle demands the trajectory stays
  bit-identical either way.

Appends wall times and the checked/unchecked ratio to
``BENCH_simcheck.json`` so the overhead trajectory accumulates commit
over commit.  The hard assertion is deliberately loose (CI boxes are
noisy); the recorded numbers are the real deliverable.
"""

import os

from bench_common import report, run_once, scaled, time_best_of

from repro.experiments.scenarios import TABLE3_REMY, run_cubic_fixed
from repro.runner import append_bench_entry, bench_entry
from repro.simcheck import ViolationReport
from repro.transport.cubic import CubicParams

BENCH_JSON = os.path.join(
    os.path.dirname(os.path.dirname(__file__)), "BENCH_simcheck.json"
)

PARAMS = CubicParams(window_init=4.0, initial_ssthresh=64.0, beta=0.7)


def test_bench_simcheck_overhead(benchmark, capfd):
    duration_s = scaled(20.0, None)
    rounds = scaled(3, 5)

    def run_unchecked():
        return run_cubic_fixed(
            PARAMS, TABLE3_REMY, seed=1, duration_s=duration_s, checked=False
        )

    def run_checked():
        check_report = ViolationReport()
        result = run_cubic_fixed(
            PARAMS,
            TABLE3_REMY,
            seed=1,
            duration_s=duration_s,
            checked=True,
            check_report=check_report,
        )
        return result, check_report

    # Warm caches/JIT-free interpreter state once before timing anything.
    baseline = run_unchecked()

    wall_unchecked, _ = time_best_of(rounds, run_unchecked)
    wall_checked, (checked_result, check_report) = time_best_of(rounds, run_checked)
    run_once(benchmark, run_unchecked)

    # Checking observes without perturbing: bit-identical simulation.
    assert checked_result.events_processed == baseline.events_processed
    assert checked_result.metrics == baseline.metrics
    # The checked run actually checked, and found nothing.
    assert check_report.ok
    assert check_report.checks_performed > 0

    ratio = wall_checked / max(wall_unchecked, 1e-9)
    events_per_second = baseline.events_processed / max(wall_unchecked, 1e-9)

    entry = bench_entry(
        "bench-simcheck-overhead",
        gate=("overhead_ratio", ratio, False),
        extra={
            "duration_s": duration_s,
            "rounds": rounds,
            "wall_unchecked_s": wall_unchecked,
            "wall_checked_s": wall_checked,
            "overhead_ratio": ratio,
            "events_processed": baseline.events_processed,
            "events_per_second_unchecked": events_per_second,
            "checks_performed": check_report.checks_performed,
        },
    )
    append_bench_entry(BENCH_JSON, entry)

    with report(capfd, "Simcheck overhead: table-3 hot path, checked vs not"):
        print(f"sim duration: {duration_s or TABLE3_REMY.duration_s:.0f} s  "
              f"events: {baseline.events_processed:,}  best of {rounds}")
        print(f"{'simcheck':<10s} {'wall (s)':>10s} {'events/s':>14s}")
        print(f"{'off':<10s} {wall_unchecked:>10.3f} {events_per_second:>14,.0f}")
        print(f"{'on':<10s} {wall_checked:>10.3f} "
              f"{baseline.events_processed / max(wall_checked, 1e-9):>14,.0f}")
        print(f"overhead: {(ratio - 1.0) * 100:+.2f}%   "
              f"invariant checks: {check_report.checks_performed:,}")
        print(f"trajectory: {BENCH_JSON}")

    # Budget: <=2x enabled; allow headroom for CI noise on top.
    assert ratio <= 2.5, (
        f"simcheck overhead {ratio:.3f}x exceeds the noise-tolerant cap"
    )
