"""The repo's benchmark: one command, every metric by name.

    python3 perf/run.py --workload table3_bulk --seed 1 --seconds 10 --trace 0

runs one workload (a comma list or nothing runs several, one after the
other) and prints every metric with its unit, the verification verdict,
and as the last line one JSON object ``{"correct", "attempted",
"failed", "metrics"}``.  Metric names, units and bounds are read from
``BENCHMARK.json`` so what is printed is what is declared.

Untraced (``--trace 0``): three fresh ``worker.py`` processes in turn,
single-threaded; each sets up, warms up once at full size and then
repeats the workload for a third of ``--seconds`` (at least twice).
Host cost is that of the fastest repetition, per goodput segment: on a
shared host other tenants only ever add time, so the minimum is the
reading that repeats (the median and maximum are printed beside it).
Set-up time and peak RSS are medians over the three processes.

Traced (``--trace 1``): one process; per-layer self time and calls from
``cProfile``, deterministic counters, and the isolated probes.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from typing import Any, Dict, List, Optional, Sequence

import layers

PERF_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(PERF_DIR)
PACKAGE_DIR = os.path.join(ROOT, "src", "repro")
OUT_DIR = os.path.join(PERF_DIR, "out")

#: Fresh processes per untraced run: set-up time and host state are
#: sampled three times, and no single process's luck decides a median.
PROCESSES = 3
MIN_REPS_PER_PROCESS = 2
WORKER_TIMEOUT_S = 150.0

#: Ambient switches that change what the package does.  Set, they would
#: make a run measure something else under the same name.
FORBIDDEN_ENV = ("REPRO_SIMCHECK", "PHI_BENCH_FULL", "REPRO_SWEEP_FAULT")


class BenchmarkError(Exception):
    """The benchmark could not measure (as opposed to: measured a failure)."""


def load_spec() -> Dict[str, Any]:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        return json.load(handle)


def check_environment() -> None:
    present = [name for name in FORBIDDEN_ENV if os.environ.get(name)]
    if present:
        raise BenchmarkError(
            "refusing to measure with " + ", ".join(present) + " set"
        )
    if not os.path.isdir(PACKAGE_DIR):
        raise BenchmarkError(f"nothing to measure: {PACKAGE_DIR} is missing")
    layers.check_complete(PACKAGE_DIR)


def _worker(
    workload: str, seed: int, budget_s: float, trace: int, short: bool, tmp_dir: str
) -> Dict[str, Any]:
    """Run one worker process to completion; returns its report."""
    env = dict(os.environ)
    # Set iteration order is part of the trajectory of some layers;
    # pinning it keeps call counts exact and removes one noise source.
    env["PYTHONHASHSEED"] = "0"
    command = [
        sys.executable,
        os.path.join(PERF_DIR, "worker.py"),
        "--workload", workload,
        "--seed", str(seed),
        "--budget-s", repr(budget_s),
        "--min-reps", str(MIN_REPS_PER_PROCESS),
        "--tmp", tmp_dir,
        "--trace", str(trace),
    ]
    if short:
        command.append("--short")
    command += ["--started", repr(time.monotonic())]
    try:
        done = subprocess.run(
            command, env=env, capture_output=True, text=True,
            timeout=WORKER_TIMEOUT_S, check=False,
        )
    except subprocess.TimeoutExpired as exc:
        raise BenchmarkError(f"{workload}: worker exceeded {WORKER_TIMEOUT_S}s") from exc
    if done.returncode != 0 or not done.stdout.strip():
        raise BenchmarkError(
            f"{workload}: worker exited {done.returncode}\n{done.stderr[-2000:]}"
        )
    return json.loads(done.stdout.strip().splitlines()[-1])


def summarize(reports: Sequence[Dict[str, Any]]) -> Dict[str, Any]:
    """End-to-end metrics and the verdict from the processes' reports.

    An operation is one timed repetition.  It fails when it raised,
    broke a workload check, or produced a ``sim_digest`` other than its
    process's warm-up — or other than the first process's, since every
    process was given the same seed.
    """
    reps = [rep for report in reports for rep in report["reps"]]
    digest = reports[0]["sim_digest"]
    failures = [
        failure for rep in reps for failure in rep["failures"]
    ] + [
        f"process {index} sim_digest differs from process 0"
        for index, report in enumerate(reports)
        if report["sim_digest"] != digest
    ]
    failed = sum(1 for rep in reps if rep["failures"])
    if failures and not failed:
        failed = 1
    timed = [rep for rep in reps if "wall_s" in rep and rep["segments"] > 0]
    if not timed:
        raise BenchmarkError("no repetition completed:\n" + "\n".join(failures))
    wall = [rep["wall_s"] for rep in timed]
    cpu = [rep["cpu_s"] for rep in timed]
    metrics = {
        "wall_us_per_segment": min(
            rep["wall_s"] / rep["segments"] * 1e6 for rep in timed
        ),
        "cpu_us_per_segment": min(
            rep["cpu_s"] / rep["segments"] * 1e6 for rep in timed
        ),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in reports),
        "setup_s": statistics.median(r["setup_s"] for r in reports),
    }
    return {
        "correct": not failures,
        "attempted": len(reps),
        "failed": failed,
        "metrics": metrics,
        "info": {
            "failed_share": failed / len(reps),
            "failures": failures,
            "sim_digest": digest,
            "repetitions": len(timed),
            "wall_s": {
                "median": statistics.median(wall), "min": min(wall), "max": max(wall),
            },
            "cpu_s": {
                "median": statistics.median(cpu), "min": min(cpu), "max": max(cpu),
            },
            "segments": timed[0]["segments"],
        },
    }


def summarize_trace(report: Dict[str, Any]) -> Dict[str, Any]:
    """Per-layer metrics and the verdict from one traced process."""
    trace = report["trace"]
    reps = report["reps"]
    failures = [f for rep in reps for f in rep["failures"]] + list(trace["failures"])
    metrics: Dict[str, float] = {}
    for name, layer in trace["layers"].items():
        metrics[f"{name}.self_s"] = layer["self_s"]
        metrics[f"{name}.calls"] = layer["calls"]
    total = sum(layer["self_s"] for layer in trace["layers"].values())
    metrics.update(trace["counters"])
    metrics.update(report["probes"])
    untraced_cpu = min((rep["cpu_s"] for rep in reps if "cpu_s" in rep), default=0.0)
    baseline_cpu = report.get("baseline_cpu_s", 0.0)
    metrics["observe.overhead_ratio"] = (
        untraced_cpu / baseline_cpu if baseline_cpu else 0.0
    )
    metrics["trace.overhead_ratio"] = (
        trace["cpu_s"] / untraced_cpu if untraced_cpu else 0.0
    )
    metrics["trace.total_s"] = total
    metrics["trace.unattributed_share"] = (
        trace["layers"]["other"]["self_s"] / total if total else 0.0
    )
    return {
        "correct": not failures,
        "attempted": len(reps) + 1,
        "failed": sum(1 for rep in reps if rep["failures"]) + bool(trace["failures"]),
        "metrics": metrics,
        "info": {
            "failures": failures,
            "sim_digest": report["sim_digest"],
            "exact": trace["exact"],
            "layer_shares": {
                name: layer["self_s"] / total if total else 0.0
                for name, layer in trace["layers"].items()
            },
        },
    }


def measure(
    workload: str, seed: int, seconds: float, trace: int, short: bool = False
) -> Dict[str, Any]:
    """Measure one workload; returns the summary (see :func:`summarize`)."""
    os.makedirs(OUT_DIR, exist_ok=True)
    tmp_dir = tempfile.mkdtemp(prefix="tmp-", dir=OUT_DIR)
    try:
        if trace:
            reports = [_worker(workload, seed, seconds, 1, short, tmp_dir)]
            summary = summarize_trace(reports[0])
        else:
            reports = [
                _worker(workload, seed, seconds / PROCESSES, 0, short, tmp_dir)
                for _ in range(PROCESSES)
            ]
            summary = summarize(reports)
    finally:
        shutil.rmtree(tmp_dir, ignore_errors=True)
    summary["info"].update(
        workload=workload,
        seed=seed,
        trace=trace,
        machine=reports[0]["machine"],
        nproc=os.cpu_count(),
        python_hash_seed=reports[0]["python_hash_seed"],
    )
    return summary


def _declared(spec: Dict[str, Any], trace: int) -> List[Dict[str, Any]]:
    return spec["per_layer"] if trace else spec["end_to_end"]


def result_line(spec: Dict[str, Any], summary: Dict[str, Any], trace: int) -> str:
    """The contract's last line: exactly the declared metrics, with units."""
    metrics = {
        m["name"]: {"value": summary["metrics"][m["name"]], "unit": m["unit"]}
        for m in _declared(spec, trace)
    }
    return json.dumps(
        {
            "correct": summary["correct"],
            "attempted": summary["attempted"],
            "failed": summary["failed"],
            "metrics": metrics,
        }
    )


def print_summary(spec: Dict[str, Any], summary: Dict[str, Any], trace: int) -> None:
    info = summary["info"]
    print(f"== {info['workload']}  seed={info['seed']}  trace={trace} ==")
    for declared in _declared(spec, trace):
        name = declared["name"]
        value = summary["metrics"][name]
        bound = f"  (bound {declared['bound']:.0%})" if "bound" in declared else ""
        print(f"{name:<40s} {value:>16.6g} {declared['unit']}{bound}")
    if trace:
        shares = "  ".join(
            f"{name}={share:.1%}"
            for name, share in info["layer_shares"].items()
            if share >= 0.005
        )
        print(f"layer shares of traced self time: {shares}")
    else:
        wall, cpu = info["wall_s"], info["cpu_s"]
        print(f"{'failed_share':<40s} {info['failed_share']:>16.6g} ratio  (bound 0, absolute)")
        print(
            f"wall_s min={wall['min']:.4f} median={wall['median']:.4f} "
            f"max={wall['max']:.4f}  cpu_s min={cpu['min']:.4f} "
            f"median={cpu['median']:.4f}  R={info['repetitions']}  "
            f"segments={info['segments']:.1f}"
        )
    print(f"sim_digest={info['sim_digest']}")
    machine = info["machine"]
    print(
        f"python={machine['python']} nproc={info['nproc']} "
        f"usable_cpus={machine['usable_cpus']} "
        f"PYTHONHASHSEED={info['python_hash_seed']} platform={machine['platform']}"
    )
    for failure in info["failures"]:
        print(f"FAILED: {failure}")


def main(argv: Optional[List[str]] = None) -> int:
    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", "--workloads", default=",".join(names),
                        help="one name or a comma list (default: all)")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=float(spec["run_seconds"]))
    parser.add_argument("--trace", type=int, choices=(0, 1), nargs="?", const=1, default=0)
    parser.add_argument("--short", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    # A terminated run must still stop its worker and remove its files.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    chosen = [name for name in args.workload.split(",") if name]
    unknown = [name for name in chosen if name not in names]
    if unknown:
        parser.error(f"unknown workload(s) {unknown}; choose from {names}")
    try:
        check_environment()
        for name in chosen:
            summary = measure(name, args.seed, args.seconds, args.trace, args.short)
            path = os.path.join(OUT_DIR, f"{name}.seed{args.seed}.trace{args.trace}.json")
            with open(path, "w", encoding="utf-8") as handle:
                json.dump(summary, handle, indent=1)
            print_summary(spec, summary, args.trace)
            print(result_line(spec, summary, args.trace), flush=True)
    except (BenchmarkError, layers.LayerMapError) as exc:
        print(f"perf/run.py: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
