"""Does the benchmark agree with itself?  Same checkout, measured twice.

    python3 perf/agree.py --seeds 1,2 > perf/BASELINE.md

For every seed the untraced suite runs as pass A in declared order and
as pass B in reverse, so no workload keeps its neighbours or its place
in the sequence.  Every workload x end-to-end metric is printed with
the relative difference of the two passes beside its bound; the traced
suite then runs twice and everything that is a function of the seed
alone (``sim_digest``, ``*.calls``, counters) must match exactly.

Exits non-zero when a difference exceeds its bound, an operation
failed, or an exact value moved: a benchmark that cannot reproduce its
own numbers on unchanged code cannot attribute a change in them.
"""

from __future__ import annotations

import argparse
import sys
from typing import Any, Dict, List, Optional

import run


def relative_difference(a: float, b: float) -> float:
    """How far apart two readings are, as a share of the smaller."""
    low, high = sorted((a, b))
    return high / low - 1.0 if low > 0 else float("inf")


def compare_passes(
    spec: Dict[str, Any],
    first: Dict[str, Dict[str, Any]],
    second: Dict[str, Dict[str, Any]],
) -> List[Dict[str, Any]]:
    """One row per workload x end-to-end metric."""
    rows = []
    for workload in first:
        a, b = first[workload], second[workload]
        for declared in spec["end_to_end"]:
            name = declared["name"]
            difference = relative_difference(a["metrics"][name], b["metrics"][name])
            rows.append(
                {
                    "workload": workload,
                    "metric": name,
                    "unit": declared["unit"],
                    "a": a["metrics"][name],
                    "b": b["metrics"][name],
                    "difference": difference,
                    "bound": declared["bound"],
                    "ok": difference <= declared["bound"],
                }
            )
    return rows


def exact_mismatches(a: Dict[str, Any], b: Dict[str, Any]) -> List[str]:
    """Names of seed-determined values that differ between two traced runs."""
    moved = [
        name for name in a["info"]["exact"] if a["metrics"][name] != b["metrics"][name]
    ]
    if a["info"]["sim_digest"] != b["info"]["sim_digest"]:
        moved.append("sim_digest")
    return moved


def main(argv: Optional[List[str]] = None) -> int:
    spec = run.load_spec()
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", default="1,2", help="comma list of seeds")
    parser.add_argument("--seconds", type=float, default=float(spec["run_seconds"]))
    args = parser.parse_args(argv)
    seeds = [int(seed) for seed in args.seeds.split(",")]
    names = [w["name"] for w in spec["workloads"]]
    run.check_environment()

    agreed = True
    print("# Benchmark self-agreement on unchanged code")
    print()
    print(
        "Produced by `python3 perf/agree.py --seeds " + args.seeds + "`. Pass A runs "
        "the workloads in declared order, pass B in reverse. `diff` is the larger "
        "reading over the smaller, minus one."
    )
    for seed in seeds:
        passes = []
        for order in (names, names[::-1]):
            passes.append(
                {name: run.measure(name, seed, args.seconds, trace=0) for name in order}
            )
        first, second = passes
        machine = first[names[0]]["info"]["machine"]
        print()
        print(f"## seed {seed}")
        print()
        print(
            f"python {machine['python']}, {machine['usable_cpus']} usable cpus, "
            f"{machine['platform']}"
        )
        print()
        print("| workload | metric | unit | A | B | diff | bound | ok |")
        print("|---|---|---|---:|---:|---:|---:|---|")
        for row in compare_passes(spec, first, second):
            agreed &= row["ok"]
            print(
                f"| {row['workload']} | {row['metric']} | {row['unit']} "
                f"| {row['a']:.5g} | {row['b']:.5g} | {row['difference']:.1%} "
                f"| {row['bound']:.0%} | {'yes' if row['ok'] else 'NO'} |"
            )
        print()
        print("| workload | failed A | failed B | sim_digest | exact values (traced twice) |")
        print("|---|---:|---:|---|---|")
        for name in names:
            a, b = first[name], second[name]
            traced = [run.measure(name, seed, args.seconds, trace=1) for _ in range(2)]
            moved = exact_mismatches(*traced)
            digests = {
                s["info"]["sim_digest"] for s in (a, b, *traced)
            }
            clean = (
                a["correct"] and b["correct"] and all(t["correct"] for t in traced)
                and len(digests) == 1 and not moved
            )
            agreed &= clean
            print(
                f"| {name} | {a['failed']}/{a['attempted']} | {b['failed']}/{b['attempted']} "
                f"| {'identical ' + a['info']['sim_digest'][:12] if len(digests) == 1 else 'DIFFERS'} "
                f"| {'all ' + str(len(traced[0]['info']['exact'])) + ' identical' if not moved else 'MOVED: ' + ', '.join(moved)} |"
            )
            sys.stdout.flush()
    print()
    print("Verdict: " + ("agrees within every bound." if agreed else "DOES NOT AGREE."))
    return 0 if agreed else 1


if __name__ == "__main__":
    try:
        sys.exit(main())
    except (run.BenchmarkError, run.layers.LayerMapError) as exc:
        print(f"perf/agree.py: {exc}", file=sys.stderr)
        sys.exit(2)
