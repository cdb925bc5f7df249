"""List every line of a def in ``src/repro`` that no entry point runs,
and the tier-1 test that first runs it.

Name scans count a definition as used when any load of its name exists
anywhere, and call scans count a def as live when it is called once;
this one counts lines.  Each *job* runs in a forked child under one
``sys.settrace`` hook that notes the first run of every line of the
code defined in ``src/repro``, pool workers the job forks included.  A
code object none of whose lines is left to see is no longer traced, so
hot code that has run whole costs only its call event.  The jobs are the
programs the repository ships and CI runs:

- the six examples, as ``__main__``;
- ``pytest benchmarks/``, with ``--benchmark-disable`` (pytest-benchmark
  otherwise lifts any trace hook while a benched function runs; the
  function still runs once);
- the CLI commands of every CI job, in CI's order, with ``--workers 2``
  for pooled sweeps (so forked workers are traced) and without the
  steps that depend on a wall clock (the fault-smoke SIGKILL), and each
  CLI verb CI does not run, once at a small size (with the poison
  modes and Byzantine reporters CI does not draw);
- ``perf/worker.py`` untraced on all six workloads, and
  ``probes.run_all`` called directly: the traced worker's ``cProfile``
  would replace the hook;
- ``scripts/validate_manifest.py`` on the manifests and trace the CLI
  jobs wrote.

A def's lines are the lines of the instructions in its code (the
prologue up to the first ``RESUME`` aside, which raises no line event),
with the lambdas, comprehensions and classes nested in it; a nested def
has its own.  Interface declarations are not counted: the members of a
``Protocol`` class, and a method whose body only raises
``NotImplementedError``.  Module and class bodies run at import and are
not counted either.

A last job runs tier-1 (``pytest tests``) under the same hook, tracing
only the lines no entry point ran, and records the id of the first test
that runs each.  ``scripts/unrun.txt`` holds one sorted entry per def
with such a line, ``path::qualname`` and the ids of those tests; line
numbers go to stdout only, so an edit that only moves lines leaves the
file as it is.  Each run rewrites the file and exits 1 when what it
wrote differs from the committed file, when a line is run by neither an
entry point nor tier-1, or when a job did not run as CI runs it.  A line
tier-1 does not run either is deleted if no input can reach it, and is
given a tier-1 test otherwise.

Run from the repository root, in a git checkout: ``python
scripts/reach.py`` (20-26 min on two cores; two jobs run at a time, then
tier-1).
"""

from __future__ import annotations

import ast
import dis
import os
import shutil
import sys
import tempfile
import threading
import time
import traceback
import types
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "repro"
LIST_PATH = ROOT / "scripts" / "unrun.txt"
PARALLEL_JOBS = 2

HEADER = """\
# Every def in src/repro with a line no entry point of scripts/reach.py
# runs, as path::qualname, then the tier-1 tests that first run those
# lines.  scripts/reach.py writes this file, prints the line numbers,
# and exits 1 when the file changes or a line is run by neither.
"""

#: The hook's label for each line it writes: the tier-1 test that runs.
LABEL = [""]

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


def _pytest(*argv, plugins=(), status=None):
    def step():
        import pytest

        args = [*argv, "-q", "-p", "no:cacheprovider", "--benchmark-disable"]
        return int(pytest.main(args, plugins=list(plugins))), status

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




class _TestIds:
    """A pytest plugin that points ``LABEL`` at the test about to run."""

    def pytest_runtest_logstart(self, nodeid, location):
        LABEL[0] = nodeid


def tier1_job():
    """Tier-1 as one job, each line it runs labelled with its test."""
    return ("tier-1", {}, [_pytest(str(ROOT / "tests"), "--rootdir", str(ROOT),
                                   plugins=[_TestIds()], status=0)])


# ----------------------------------------------------------------------
# The hook and the child
# ----------------------------------------------------------------------
def _install_hook(out, wanted=None):
    """Write ``path<TAB>line<TAB>label`` the first time each line of the
    package's code runs in this process (forked children share ``out``);
    with ``wanted`` (``{path: lines}``), only those lines.  A code object
    with no line left to see is no longer traced.  Returns the hook."""
    prefix = str(PACKAGE) + os.sep
    left = {}  # id(code) -> its lines not yet seen
    codes = []  # holding each code keeps its id from being reused

    def trace_lines(frame, event, arg):
        if event == "line":
            lines = left[id(frame.f_code)]
            line = frame.f_lineno
            if line in lines:
                lines.discard(line)
                out.write(f"{frame.f_code.co_filename}\t{line}\t{LABEL[0]}\n")
                out.flush()
            if not lines:
                return None
        return trace_lines

    def hook(frame, event, arg):
        code = frame.f_code
        lines = left.get(id(code))
        if lines is None:
            codes.append(code)
            lines = set()
            if code.co_filename.startswith(prefix) and code.co_name != "<module>":
                lines = code_lines(code)
                if wanted is not None:
                    lines &= wanted.get(code.co_filename, set())
            left[id(code)] = lines
        return trace_lines if lines else None

    threading.settrace(hook)
    sys.settrace(hook)
    return hook


def _child(env, steps, lines_path, log_path, work_dir, wanted) -> int:
    os.environ.update(env)
    log = os.open(log_path, os.O_WRONLY | os.O_CREAT | os.O_APPEND, 0o644)
    os.dup2(log, 1)
    os.dup2(log, 2)
    os.chdir(work_dir)
    sys.path.insert(0, str(ROOT / "src"))
    failed = 0
    with open(lines_path, "a", encoding="utf-8") as out:
        _install_hook(out, wanted)
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
        sys.settrace(None)
    return failed


def run_jobs(jobs, scratch: Path, wanted=None) -> tuple:
    """Run ``jobs``, two at a time, tracing only the ``wanted``
    ``{(path, line)}`` if given; ``({job: {(path, line): label of its
    first run}}, failed job names)``."""
    if wanted is not None:
        by_file = {}
        for path, line in wanted:
            by_file.setdefault(str(ROOT / path), set()).add(line)
        wanted = by_file
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
                    status = _child(env, steps, scratch / f"{job}.lines",
                                    scratch / f"{job}.log", work_dir, wanted)
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
    ran = {job: {} for job, _, _ in jobs}
    for job, first in ran.items():
        rows = scratch / f"{job}.lines"
        for row in rows.read_text().splitlines() if rows.exists() else ():
            filename, line, label = row.split("\t")
            first.setdefault((Path(filename).relative_to(ROOT).as_posix(), int(line)), label)
    return ran, failed


# ----------------------------------------------------------------------
# Definitions, their lines and the list
# ----------------------------------------------------------------------
def definitions() -> set:
    """Every def in the package, as ``path::qualname``."""
    found = set()

    def visit(node, path, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                if not _abstract(child):
                    found.add(f"{path}::{prefix}{child.name}")
                    visit(child, path, prefix + child.name + ".<locals>.")
            elif isinstance(child, ast.ClassDef):
                if not any(ast.unparse(base).endswith("Protocol") for base in child.bases):
                    visit(child, path, prefix + child.name + ".")
            else:
                visit(child, path, prefix)

    for file in sorted(PACKAGE.rglob("*.py")):
        path = file.relative_to(ROOT).as_posix()
        visit(ast.parse(file.read_text(encoding="utf-8")), path, "")
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


def code_lines(code) -> set:
    """The lines ``code`` itself raises line events on: its instructions'
    lines past the prologue, which ends at the first ``RESUME``."""
    instructions = iter(dis.get_instructions(code))
    for instruction in instructions:
        if instruction.opname == "RESUME":
            break
    return {ins.positions.lineno for ins in instructions} - {None}


def def_lines(defs) -> dict:
    """``{(path, line): path::qualname}`` for every line of every def in
    ``defs``, the code nested in a def that is not a def counted as its."""
    found = {}

    def walk(code, path, owner):
        key = f"{path}::{code.co_qualname}"
        if key in defs:
            owner = key
        if owner is not None:
            found.update(dict.fromkeys(((path, line) for line in code_lines(code)), owner))
        for const in code.co_consts:
            if isinstance(const, types.CodeType):
                walk(const, path, owner)

    for file in sorted(PACKAGE.rglob("*.py")):
        path = file.relative_to(ROOT).as_posix()
        walk(compile(file.read_text(encoding="utf-8"), str(file), "exec"), path, None)
    return found


def render(entries) -> str:
    """The list's text: ``{path::qualname: test ids}``, sorted."""
    return HEADER + "".join(
        f"{key}  {' '.join(sorted(tests))}".rstrip() + "\n"
        for key, tests in sorted(entries.items())
    )


def read_list(path: Path = LIST_PATH) -> dict:
    """``{path::qualname: [test ids]}`` of the committed list."""
    entries = {}
    if path.exists():
        for line in path.read_text(encoding="utf-8").splitlines():
            if line.strip() and not line.startswith("#"):
                key, *tests = line.split()
                entries[key] = tests
    return entries


def main() -> int:
    started = time.monotonic()
    lines = def_lines(definitions())
    scratch = Path(tempfile.mkdtemp(prefix="reach-"))
    try:
        ran, failed = run_jobs(JOBS, scratch)
        unrun = set(lines).difference(*ran.values())
        tested, tier1_failed = run_jobs([tier1_job()], scratch, wanted=unrun)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    first_test = tested["tier-1"]
    entries = {}
    for path, line in sorted(unrun):
        key = lines[(path, line)]
        test = first_test.get((path, line))
        entries.setdefault(key, set()).update([test] if test else [])
        print(f"{path}:{line}  {key.split('::')[1]}  {test or 'RUN BY NEITHER'}")
    never = len(unrun) - len(first_test)
    committed = LIST_PATH.read_text(encoding="utf-8") if LIST_PATH.exists() else ""
    written = render(entries)
    LIST_PATH.write_text(written, encoding="utf-8")
    print(f"{len(unrun)} of {len(lines)} lines, in {len(entries)} defs, run by no entry "
          f"point; tier-1 runs {len(first_test)} of them; run by neither: {never} "
          f"({time.monotonic() - started:.0f} s)")
    if written != committed:
        print(f"{LIST_PATH.relative_to(ROOT)} changed (git diff shows how)")
    if failed or tier1_failed:
        print(f"jobs that did not run as CI runs them: {', '.join(failed + tier1_failed)}")
    return 1 if failed or tier1_failed or never or written != committed else 0


if __name__ == "__main__":
    sys.exit(main())
