"""One fresh process of one workload: set up, warm up, then measure.

``run.py`` starts this file as a subprocess so that every measurement
begins from a cold interpreter (and so that ``ru_maxrss`` and set-up
time mean something).  The process runs one workload, single-threaded,
and prints one JSON object as its last line of output.

Untraced (the numbers a user pays): timed repetitions until the time
budget is used, at least ``--min-reps``; ``gc.collect()`` between them,
gc left on.  Traced (where the time goes): ``--min-reps`` untraced
repetitions for the base, one under ``cProfile`` attributed to layers,
the counters of that repetition, and the isolated probes.
"""

from __future__ import annotations

import argparse
import cProfile
import gc
import json
import os
import pstats
import resource
import sys
import tempfile
import time
import traceback
from typing import Any, Dict, List, Optional

PERF_DIR = os.path.dirname(os.path.abspath(__file__))
SRC_DIR = os.path.join(os.path.dirname(PERF_DIR), "src")
if SRC_DIR not in sys.path:  # the driver's command sets no PYTHONPATH
    sys.path.insert(0, SRC_DIR)

import repro  # noqa: E402
from repro.runner import machine_fingerprint  # noqa: E402

import layers  # noqa: E402
import probes  # noqa: E402
import workloads  # noqa: E402

PACKAGE_DIR = os.path.dirname(os.path.abspath(repro.__file__))


def _timed(call) -> tuple:
    """(result, wall_s, cpu_s) of one call, collected garbage first."""
    gc.collect()
    wall = time.perf_counter()
    cpu = time.process_time()
    out = call()
    return out, time.perf_counter() - wall, time.process_time() - cpu


def _repetition(workload, reference: str) -> Dict[str, Any]:
    """One timed repetition, judged.  A raise is a failed repetition."""
    try:
        out, wall_s, cpu_s = _timed(workload.stage())
        seen = workload.inspect(out)
    except Exception:  # the benchmark reports the failure, never hides it
        return {"failures": ["raised: " + traceback.format_exc(limit=4)]}
    failures = list(seen.failures)
    if seen.digest != reference:
        failures.append(f"sim_digest {seen.digest[:12]} != warm-up {reference[:12]}")
    return {
        "wall_s": wall_s,
        "cpu_s": cpu_s,
        "segments": seen.segments,
        "digest": seen.digest,
        "failures": failures,
    }


def _traced(workload, reference: str) -> Dict[str, Any]:
    """One repetition under cProfile, attributed to layers."""
    call = workload.stage()
    profile = cProfile.Profile()
    gc.collect()
    cpu = time.process_time()
    profile.enable()
    try:
        out = call()
    finally:
        profile.disable()
    cpu_s = time.process_time() - cpu
    seen = workload.inspect(out)
    failures = list(seen.failures)
    if seen.digest != reference:
        failures.append("traced sim_digest differs from the warm-up's")
    return {
        "cpu_s": cpu_s,
        "layers": layers.attribute(pstats.Stats(profile).stats, PACKAGE_DIR),
        "counters": seen.counters,
        "exact": [f"{name}.calls" for name in layers.LAYERS]
        + list(workloads.EXACT_COUNTERS),
        "digest": seen.digest,
        "failures": failures,
    }


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--budget-s", type=float, required=True)
    parser.add_argument("--min-reps", type=int, default=2)
    parser.add_argument("--started", type=float, required=True,
                        help="time.monotonic() of the parent at spawn")
    parser.add_argument("--tmp", required=True, help="scratch directory to use")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--short", action="store_true")
    args = parser.parse_args(argv)

    with tempfile.TemporaryDirectory(dir=args.tmp) as tmp_dir:
        workload = workloads.WORKLOADS[args.workload](args.seed, tmp_dir, args.short)
        reference = workload.warm_up()
        # CLOCK_MONOTONIC is system-wide on Linux, so the parent's
        # reading at spawn and ours here are on one axis.
        setup_s = time.monotonic() - args.started

        report: Dict[str, Any] = {
            "workload": args.workload,
            "seed": args.seed,
            "setup_s": setup_s,
            "sim_digest": reference,
            "machine": machine_fingerprint(),
            "python_hash_seed": os.environ.get("PYTHONHASHSEED", ""),
        }
        reps = []
        loop_started = time.perf_counter()
        while True:
            cycle_started = time.perf_counter()
            reps.append(_repetition(workload, reference))
            # The budget covers judging too, so a cheap repetition with
            # an expensive check cannot overrun the run.
            now = time.perf_counter()
            if len(reps) >= args.min_reps and (
                args.trace
                or (now - loop_started) + (now - cycle_started) > args.budget_s
            ):
                break
        report["reps"] = reps
        if args.trace:
            report["trace"] = _traced(workload, reference)
            baseline = workload.baseline()
            if baseline is not None:
                report["baseline_cpu_s"] = min(
                    _timed(baseline)[2] for _ in range(args.min_reps)
                )
            report["probes"] = probes.run_all(args.seed, tmp_dir, args.short)
    # ru_maxrss is KiB on Linux.
    report["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
