"""List every ``def`` in ``src/repro`` that no entry point ever calls.

Name scans count a definition as used when any load of its name exists
anywhere; this one counts calls.  Each *job* runs in a forked child under
a ``sys.setprofile`` hook that notes the first call of every code object
defined in ``src/repro``, pool workers the job forks included.  The jobs
are the programs the repository ships and CI runs:

- the six examples, as ``__main__``;
- ``pytest benchmarks/``, with ``--benchmark-disable`` (pytest-benchmark
  otherwise lifts any profile hook while a benched function runs; the
  function still runs once);
- the CLI commands of every CI job, in CI's order, with ``--workers 2``
  for pooled sweeps (so forked workers are profiled) and without the
  steps that depend on a wall clock (the fault-smoke SIGKILL), and each
  CLI verb CI does not run, once at a small size (with the poison
  modes and Byzantine reporters CI does not draw);
- ``perf/worker.py`` untraced on all six workloads, and
  ``probes.run_all`` called directly: the traced worker's ``cProfile``
  would replace the hook;
- ``scripts/validate_manifest.py`` on the manifests and trace the CLI
  jobs wrote.

A ``def`` (``ast.FunctionDef``, nested ones included) that none of them
called is *uncalled*.  Interface declarations are never called and are
not counted: the members of a ``Protocol`` class, and a method whose
body only raises ``NotImplementedError``.  The uncalled defs are kept as
sorted ``path::qualname`` lines in ``scripts/uncalled.txt``, each
followed by its outcome: ``failure path: <tier-1 test id>`` or ``reserved: ROADMAP
<item>, expires PR <n>``.  A def that has neither is deleted instead.
Each run rewrites the file, keeping the outcome of every line that
stays, and exits 1 when the set of uncalled defs differs from the one
committed, in either direction, or when a failure path's test, run
alone under the hook, does not call its def.  ``tests/test_reach_list.py``
checks the rest of the outcomes without running anything.

Run from the repository root: ``python scripts/reach.py`` (about 16 min
on two cores; two jobs run at a time).
"""

from __future__ import annotations

import ast
import os
import re
import shutil
import sys
import tempfile
import threading
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "repro"
LIST_PATH = ROOT / "scripts" / "uncalled.txt"
PARALLEL_JOBS = 2

HEADER = """\
# Every def in src/repro that no entry point of scripts/reach.py calls,
# as path::qualname, each with one outcome:
#   failure path: <tier-1 test that reaches it>
#   reserved: ROADMAP <open item>, expires PR <n>
# scripts/reach.py rewrites this file and exits 1 when the set changes;
# tests/test_reach_list.py checks every outcome.
"""

ENTRY_RE = re.compile(r"^(?P<def>\S+::\S+)(?:\s+(?P<outcome>.*))?$")
FAILURE_PATH = re.compile(r"failure path: (?P<test>tests/\S+\.py(?:::\w+)+)")
RESERVED = re.compile(
    r"reserved: ROADMAP (?P<item>\d+)(?:\([A-Za-z]+\))?, expires PR (?P<pr>\d+)"
)

_SWEEP = ("sweep", "--runs", "1", "--duration", "5", "--ssthresh-range", "2,16",
          "--window-range", "2,64", "--beta-range", "0.2,0.5", "--workers", "2")
_PARTITION = ("fault", "partition", "--preset", "fig2a-low-utilization",
              "--n-replicas", "1,3", "--severity", "0,0.34", "--heal-s", "8",
              "--seeds", "0", "--duration", "25")

#: Out-of-range flags CI expects to exit 2 at parse.
BAD_FLAGS = (
    "cubic --duration 1 --beta 1.5",
    "cubic --duration 1 --beta nan",
    "cubic --duration 1 --window-init nan",
    "cubic --duration 1 --ssthresh 1",
    "incremental --duration 1 --fraction 1.5",
    "incremental --duration 1 --fraction nan",
    "incremental --duration 1 --beta 1.5",
    "fault poison --duration 1 --workers 0",
    "fault poison --duration 1 --workers -1",
    "fault partition --duration 1 --workers 0",
    "fault partition --duration 1 --workers -1",
    "fault poison --tolerance nan",
    "diagnose --severity nan",
    "diagnose --outage-minutes -60",
    "ipfix --minutes 0",
    "sweep --retries 0",
    "sweep --point-timeout nan",
    "sweep --max-sim-events 0",
    "sweep --max-sim-seconds nan",
    "fault partition --duration 1 --partition-start nan",
    "fault partition --duration 1 --partition-start -5",
    "fault partition --duration 1 --n-replicas 0",
    "fault degraded --duration 1 --unavailability 2",
    "cubic --duration 1 --seed -1",
    "ipfix --minutes 1 --seed -1",
    "check --fuzz -1",
    "telemetry summarize m.json --max-points -1",
)


# ----------------------------------------------------------------------
# Steps: each runs in the job's child, in its working directory.
# ----------------------------------------------------------------------
def _cli(*argv, status=0):
    def step():
        from repro.cli import main

        try:
            code = main(list(argv))
        except SystemExit as exc:
            code = exc.code
        return code, status

    step.label = "repro " + " ".join(argv)
    return step


def _dumps(pattern, *argv):
    """``repro <argv> <dump>`` for each file the glob ``pattern`` finds."""

    def step():
        dumps = sorted(Path.cwd().glob(pattern))
        codes = [_cli(*argv, str(dump))()[0] for dump in dumps]
        return (0 if dumps and not any(codes) else 1), 0

    step.label = f"repro {' '.join(argv)} {pattern}"
    return step


def _validate(*files):
    def step():
        sys.path.insert(0, str(ROOT / "scripts"))
        import validate_manifest

        return validate_manifest.main(list(files)), 0

    step.label = "validate_manifest.py " + " ".join(files)
    return step


def _example(name):
    def step():
        import runpy

        sys.argv = [name]
        runpy.run_path(str(ROOT / "examples" / name), run_name="__main__")
        return 0, 0

    step.label = "examples/" + name
    return step


def _pytest(*argv):
    def step():
        import pytest

        args = [*argv, "-q", "-p", "no:cacheprovider", "--benchmark-disable"]
        return int(pytest.main(args)), None

    step.label = "pytest " + " ".join(argv)
    return step


def _perf_worker(workload):
    def step():
        sys.path.insert(0, str(ROOT / "perf"))
        import worker

        argv = ["--workload", workload, "--seed", "1", "--budget-s", "0",
                "--min-reps", "1", "--started", str(time.monotonic()), "--tmp", "."]
        return worker.main(argv), 0

    step.label = "perf/worker.py --workload " + workload
    return step


def _probes():
    sys.path.insert(0, str(ROOT / "perf"))
    import probes

    probes.run_all(1, ".", short=True)
    return 0, 0


_probes.label = "perf probes.run_all"


def _bad_flags():
    codes = [_cli(*flags.split())()[0] for flags in BAD_FLAGS]
    return (0 if all(code == 2 for code in codes) else 1), 0


_bad_flags.label = f"{len(BAD_FLAGS)} out-of-range flag sets exit 2"

#: ``(job, environment, steps)``; one forked child per job.
JOBS = (
    ("examples", {}, [_example(name) for name in (
        "quickstart.py", "cdn_coordination.py", "cwnd_trajectory.py",
        "multi_provider_weather.py", "outage_war_room.py", "remy_phi_training.py")]),
    ("benchmarks", {}, [_pytest(str(ROOT / "benchmarks"))]),
    ("bad-flags", {}, [_bad_flags]),
    ("parallel-serial-smoke", {}, [_cli(*_SWEEP, "--serial-check", "--quiet")]),
    ("fault-smoke", {}, [
        _cli(*_SWEEP, "--checkpoint-dir", "ckpt", "--quiet"),
        _cli(*_SWEEP, "--checkpoint-dir", "ckpt", "--resume", "--serial-check", "--quiet"),
        _cli("sweep", "--runs", "1", "--duration", "5", "--ssthresh-range", "2",
             "--window-range", "2,64", "--beta-range", "0.2", "--workers", "2",
             "--max-sim-events", "2000", "--checkpoint-dir", "ckpt-stall", "--quiet",
             status=1),
        _dumps("ckpt-stall/flightrec-*.jsonl", "postmortem", "--json"),
        _cli(*_SWEEP, "--cache-dir", "cache", "--quiet"),
        _cli(*_SWEEP, "--cache-dir", "cache", "--quiet"),
    ]),
    ("telemetry-smoke", {}, [
        _cli(*_SWEEP, "--quiet", "--metrics-out", "manifest.json"),
        _cli("cubic", "--duration", "5", "--seed", "1", "--trace-out", "trace.jsonl"),
        _validate("manifest.json", "trace.jsonl"),
        _cli("postmortem", "trace.jsonl", "--json"),
        _cli("telemetry", "summarize", "manifest.json"),
    ]),
    ("poison-smoke", {}, [
        _cli("fault", "poison", "--preset", "fig2a-low-utilization",
             "--modes", "inflate,garbage", "--severity", "0,0.5", "--seeds", "0,1",
             "--duration", "30", "--workers", "2", "--serial-check",
             "--metrics-out", "poison-manifest.json"),
        _validate("poison-manifest.json"),
        _cli("fault", "poison", "--preset", "fig2a-low-utilization", "--modes", "inflate",
             "--severity", "1.0", "--seeds", "0,1", "--duration", "30",
             "--unguarded", "--expect-harm"),
    ]),
    ("partition-smoke", {}, [
        _cli("check", "--oracle", "replication-identity", "--oracle",
             "replica-convergence", "--duration", "8", "--seed", "0"),
        _cli("fault", "degraded", "--duration", "10", "--seeds", "0", "--workers", "2",
             "--serial-check", "--metrics-out", "degraded-manifest.json"),
        _validate("degraded-manifest.json"),
    ]),
    ("partition-smoke-checked", {"REPRO_SIMCHECK": "1"}, [
        _cli(*_PARTITION, "--workers", "2", "--serial-check",
             "--metrics-out", "partition-manifest.json"),
        _validate("partition-manifest.json"),
    ]),
    ("cli-verbs", {}, [
        _cli("presets"),
        _cli("sweep", "--runs", "1", "--duration", "2", "--ssthresh-range", "2",
             "--window-range", "2", "--beta-range", "0.2,0.5", "--workers", "1"),
        _cli("phi", "--duration", "5", "--metrics-out", "phi-manifest.json"),
        _validate("phi-manifest.json"),
        _cli("phi", "--duration", "5", "--mode", "ideal"),
        _cli("fault", "poison", "--modes", "bitflip,scale,frozen,replay", "--severity", "0.5,1",
             "--byzantine-fraction", "0.25", "--seeds", "0", "--duration", "8", status=None),
        _cli("incremental", "--duration", "5"),
        _cli("ipfix", "--minutes", "1"),
        _cli("diagnose"),
    ]),
    ("simcheck-smoke", {}, [
        _cli("check", "--duration", "5", "--seed", "0", "--fuzz", "3",
             "--report", "simcheck-report.json"),
    ]),
    ("flightrec-smoke", {}, [
        _cli(*_PARTITION[:4], "--n-replicas", "1", "--severity", "0.34", "--heal-s", "8",
             "--seeds", "0", "--duration", "25", "--tolerance", "-1000", "--quiet",
             "--flightrec-out", "flightrec-envelope.jsonl", status=1),
        _cli("postmortem", "flightrec-envelope.jsonl"),
        _cli("postmortem", "flightrec-envelope.jsonl", "--json"),
    ]),
    ("perf", {}, [_perf_worker(name) for name in (
        "table3_bulk", "fig2c_lossy", "phi_shortflows", "sweep_cold", "sweep_warm",
        "table3_observed")] + [_probes]),
)


# ----------------------------------------------------------------------
# The hook and the child
# ----------------------------------------------------------------------
def _install_hook(out) -> None:
    """Write ``path<TAB>first line`` of each package code object on its
    first call in this process; forked children share ``out``."""
    prefix = str(PACKAGE) + os.sep
    seen = {}  # id -> code; holding the code keeps its id from being reused

    def hook(frame, event, arg):
        if event == "call":
            code = frame.f_code
            if id(code) not in seen:
                seen[id(code)] = code
                if code.co_filename.startswith(prefix):
                    out.write(f"{code.co_filename}\t{code.co_firstlineno}\n")
                    out.flush()

    threading.setprofile(hook)
    sys.setprofile(hook)


def _child(env, steps, calls_path, log_path, work_dir) -> int:
    os.environ.update(env)
    log = os.open(log_path, os.O_WRONLY | os.O_CREAT | os.O_APPEND, 0o644)
    os.dup2(log, 1)
    os.dup2(log, 2)
    os.chdir(work_dir)
    sys.path.insert(0, str(ROOT / "src"))
    failed = 0
    with open(calls_path, "a", encoding="utf-8") as out:
        _install_hook(out)
        for step in steps:
            try:
                code, expected = step()
            except Exception:  # a step's crash is its log's, and fails the job
                traceback.print_exc()
                code, expected = "raised", 0
            sys.stdout.flush()
            if expected is not None and code != expected:
                print(f"reach: {step.label}: exit {code}, expected {expected}", flush=True)
                failed = 1
        sys.setprofile(None)
    return failed


def run_jobs(jobs, scratch: Path) -> tuple:
    """Run ``jobs``, two at a time; ``({job: called (path, first line)
    pairs}, failed job names)``."""
    pending = list(jobs)
    running = {}
    failed = []
    while pending or running:
        while pending and len(running) < PARALLEL_JOBS:
            job, env, steps = pending.pop(0)
            work_dir = scratch / job
            work_dir.mkdir()
            sys.stdout.flush()
            pid = os.fork()
            if pid == 0:
                status = 1
                try:
                    status = _child(env, steps, scratch / f"{job}.calls",
                                    scratch / f"{job}.log", work_dir)
                finally:
                    os._exit(status)
            running[pid] = (job, time.monotonic())
        pid, status = os.wait()
        job, started = running.pop(pid)
        ok = os.waitstatus_to_exitcode(status) == 0
        print(f"{job}: {'ok' if ok else 'FAILED'} in {time.monotonic() - started:.0f} s",
              flush=True)
        if not ok:
            failed.append(job)
            print((scratch / f"{job}.log").read_text(errors="replace")[-4000:])
    called = {job: set() for job, _, _ in jobs}
    for job in called:
        calls = scratch / f"{job}.calls"
        for line in calls.read_text().splitlines() if calls.exists() else ():
            filename, firstline = line.split("\t")
            called[job].add((Path(filename).relative_to(ROOT).as_posix(), int(firstline)))
    return called, failed


def unreached_failure_paths(outcomes, defs, scratch: Path) -> list:
    """Run each test a ``failure path`` outcome names, alone under the
    hook; the listed defs its test did not call."""
    by_test = {}
    for key, outcome in sorted(outcomes.items()):
        match = FAILURE_PATH.fullmatch(outcome)
        if match and key in defs:
            by_test.setdefault(match["test"], []).append(key)
    jobs = [
        (f"failure-path-{index}", {}, [_pytest(str(ROOT / test))])
        for index, test in enumerate(by_test)
    ]
    called, _ = run_jobs(jobs, scratch)
    return [
        f"{key} (by {test})"
        for (job, _, _), (test, keys) in zip(jobs, by_test.items())
        for key in keys
        if defs[key][:2] not in called[job]
    ]


# ----------------------------------------------------------------------
# Definitions and the list
# ----------------------------------------------------------------------
def definitions() -> dict:
    """``{path::qualname: (path, first line, last line, enclosing def)}``
    for every def in the package; the first line is the first
    decorator's, as ``co_firstlineno`` counts it."""
    found = {}

    def visit(node, path, prefix, parent):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                if _abstract(child):
                    continue
                qualname = prefix + child.name
                first = min([child.lineno] + [d.lineno for d in child.decorator_list])
                key = f"{path}::{qualname}"
                found[key] = (path, first, child.end_lineno, parent)
                visit(child, path, qualname + ".<locals>.", key)
            elif isinstance(child, ast.ClassDef):
                if not any(ast.unparse(base).endswith("Protocol") for base in child.bases):
                    visit(child, path, prefix + child.name + ".", parent)
            else:
                visit(child, path, prefix, parent)

    for file in sorted(PACKAGE.rglob("*.py")):
        path = file.relative_to(ROOT).as_posix()
        visit(ast.parse(file.read_text(encoding="utf-8")), path, "", None)
    return found


def _abstract(node) -> bool:
    """Whether a def's body, docstring aside, is one ``raise NotImplementedError``."""
    body = node.body[1:] if ast.get_docstring(node) is not None else node.body
    return (
        len(body) == 1
        and isinstance(body[0], ast.Raise)
        and body[0].exc is not None
        and ast.unparse(body[0].exc).startswith("NotImplementedError")
    )


def read_list(path: Path = LIST_PATH) -> dict:
    """``{path::qualname: outcome}`` of the committed list."""
    entries = {}
    if path.exists():
        for line in path.read_text(encoding="utf-8").splitlines():
            if line.strip() and not line.startswith("#"):
                match = ENTRY_RE.match(line)
                entries[match["def"]] = (match["outcome"] or "").strip()
    return entries


def write_list(uncalled, outcomes, path: Path = LIST_PATH) -> None:
    width = max((len(key) for key in uncalled), default=0)
    lines = [f"{key:<{width}}  {outcomes.get(key, '')}".rstrip() for key in sorted(uncalled)]
    path.write_text(HEADER + "".join(line + "\n" for line in lines), encoding="utf-8")


def span_lines(keys, defs) -> int:
    """Lines the defs ``keys`` take, a def inside another one counted once."""
    return sum(
        defs[key][2] - defs[key][1] + 1 for key in keys if defs[key][3] not in keys
    )


def main() -> int:
    defs = definitions()
    started = time.monotonic()
    scratch = Path(tempfile.mkdtemp(prefix="reach-"))
    try:
        called_by_job, failed = run_jobs(JOBS, scratch)
        called = set().union(*called_by_job.values())
        uncalled = {key for key, (path, first, _, _) in defs.items() if (path, first) not in called}
        committed = read_list()
        unreached = unreached_failure_paths(committed, defs, scratch)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    write_list(uncalled, committed)
    print(f"{len(uncalled)} of {len(defs)} defs uncalled "
          f"({span_lines(uncalled, defs)} lines) in {time.monotonic() - started:.0f} s")
    for key in sorted(uncalled - set(committed)):
        print(f"newly uncalled: {key}")
    for key in sorted(set(committed) - uncalled):
        print(f"no longer uncalled (or gone): {key}")
    for entry in unreached:
        print(f"failure path its test does not reach: {entry}")
    if failed:
        print(f"jobs that did not run as CI runs them: {', '.join(failed)}")
    return 1 if failed or unreached or uncalled != set(committed) else 0


if __name__ == "__main__":
    sys.exit(main())
