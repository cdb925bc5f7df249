"""``scripts/reach.py`` counts the lines it should, traces the lines it
should, and names the test that first runs each.

Each part runs here on a small package written to a temporary directory
(the script reads ``ROOT`` and ``PACKAGE`` as module globals), so no
entry point is run.  The last tests read the committed jobs: every
example, perf workload and CLI verb is one of them.
"""

import argparse
import importlib.util
import io
import os
import sys
import threading

import pytest

from repro.cli import build_parser, main as cli_main

from .test_reach_list import ROOT, reach

MODULE = '''\
import functools
from typing import Protocol


def lead():
    return helper()


def helper():
    return 1


def branchy(flag):
    if flag:
        return "taken"
    return "untaken"


def outer():
    def inner():
        return 0

    return inner


@functools.lru_cache(maxsize=None)
def decorated():
    return [x for x in (2,)]


class Box:
    def method(self):
        return 3

    class Inner:
        def deep(self):
            return 4

    def stub(self):
        """Subclasses say."""
        raise NotImplementedError


class Shape(Protocol):
    def area(self) -> float:
        ...
'''

PATH = "src/repro/mod.py"


def line_of(text):
    """The line of ``MODULE`` that holds ``text``."""
    (number,) = [n for n, line in enumerate(MODULE.splitlines(), 1) if text in line]
    return number


@pytest.fixture
def package(tmp_path, monkeypatch):
    """A one-module package that ``reach`` scans instead of ``src/repro``."""
    package = tmp_path / "src" / "repro"
    package.mkdir(parents=True)
    (package / "mod.py").write_text(MODULE, encoding="utf-8")
    (tmp_path / "elsewhere.py").write_text("def outside():\n    return 5\n", encoding="utf-8")
    (tmp_path / "scratch").mkdir()
    monkeypatch.setattr(reach, "ROOT", tmp_path)
    monkeypatch.setattr(reach, "PACKAGE", package)
    return tmp_path


def _load(path, name):
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _step(body, label="step"):
    body.label = label
    return body


def _calls(root, *calls):
    """A step that loads the package module and makes ``calls``, each a
    name or a ``(name, argument)`` pair."""

    def step():
        module = _load(root / PATH, "reach_fake_mod")
        for call in calls:
            name, *args = (call,) if isinstance(call, str) else call
            getattr(module, name)(*args)
        return 0, 0

    return _step(step, "calls")


def _lines(*keys):
    """The package's lines owned by the defs named ``keys``."""
    owned = reach.def_lines(reach.definitions())
    return {at for at, key in owned.items() if key.split("::")[1] in keys}


# ----------------------------------------------------------------------
# definitions and their lines
# ----------------------------------------------------------------------
def test_definitions_are_named_as_path_and_qualname(package):
    assert reach.definitions() == {
        f"{PATH}::{name}"
        for name in ("lead", "helper", "branchy", "outer", "outer.<locals>.inner",
                     "decorated", "Box.method", "Box.Inner.deep")
    }


@pytest.mark.parametrize(
    ("body", "abstract"),
    [
        ("raise NotImplementedError", True),
        ('"""Subclasses say."""\n    raise NotImplementedError("area")', True),
        ("raise ValueError('not a stub')", False),
        ("x = 1\n    raise NotImplementedError", False),
        ("raise", False),
    ],
    ids=["bare", "docstring-and-call", "other-error", "more-than-the-raise", "re-raise"],
)
def test_only_a_lone_raise_not_implemented_is_a_declaration(body, abstract):
    (node,) = reach.ast.parse(f"def f():\n    {body}\n").body
    assert reach._abstract(node) is abstract


def test_a_def_owns_its_body_lines_and_not_its_def_line(package):
    owned = reach.def_lines(reach.definitions())
    assert owned[(PATH, line_of('"taken"'))] == f"{PATH}::branchy"
    assert owned[(PATH, line_of("return 0"))] == f"{PATH}::outer.<locals>.inner"
    # The comprehension is its def's; the prologue and decorators are not
    # lines, and neither are module or class bodies.
    assert owned[(PATH, line_of("for x in"))] == f"{PATH}::decorated"
    assert (PATH, line_of("def branchy")) not in owned
    assert (PATH, line_of("@functools")) not in owned
    assert (PATH, line_of("class Box")) not in owned
    assert set(owned.values()) == reach.definitions()


def test_read_list_reads_what_render_writes(tmp_path):
    path = tmp_path / "unrun.txt"
    entries = {"src/repro/z.py::C.g": {"tests/t.py::test_b", "tests/t.py::test_a"},
               "src/repro/a.py::f": set()}
    path.write_text(reach.render(entries), encoding="utf-8")
    assert reach.read_list(path) == {
        "src/repro/a.py::f": [],
        "src/repro/z.py::C.g": ["tests/t.py::test_a", "tests/t.py::test_b"],
    }
    assert reach.read_list(tmp_path / "missing.txt") == {}


# ----------------------------------------------------------------------
# the hook and the jobs
# ----------------------------------------------------------------------
def test_an_untaken_branch_is_listed(package):
    ran, failed = reach.run_jobs(
        [("job", {}, [_calls(package, ("branchy", True), "lead")])], package / "scratch")
    assert failed == []
    unrun = set(reach.def_lines(reach.definitions())) - set(ran["job"])
    assert {(PATH, line_of('"untaken"'))} == unrun & _lines("branchy")
    assert not unrun & _lines("lead", "helper")
    assert all(path.startswith("src/repro/") for path, _ in ran["job"])


def test_a_def_whose_lines_have_all_run_is_no_longer_traced(package):
    module = _load(package / PATH, "reach_fake_mod_done")
    helper, branchy = _frame_of(module.helper), _frame_of(module.branchy, True)
    out = io.StringIO()
    previous, previous_threads = sys.gettrace(), threading.gettrace()
    try:
        hook = reach._install_hook(out)
        before = hook(helper, "call", None)
        module.helper()
        module.branchy(True)
        after = hook(helper, "call", None), hook(branchy, "call", None)
    finally:
        sys.settrace(previous)
        threading.settrace(previous_threads)
    assert before is not None
    assert after[0] is None  # helper has run whole: no line events from now on
    assert after[1] is not None  # branchy's other arm is still to see
    assert f"{package / PATH}\t{line_of('return 1')}\t" in out.getvalue().splitlines()


def _frame_of(function, *args):
    """A frame of ``function``, taken as it runs (untraced) with ``args``."""
    taken = []

    def profile(frame, event, arg):
        if event == "call" and frame.f_code is function.__code__:
            taken.append(frame)

    sys.setprofile(profile)
    try:
        function(*args)
    finally:
        sys.setprofile(None)
    return taken[0]


def test_a_forked_child_reports_its_lines_too(package):
    def step():
        module = _load(package / PATH, "reach_fake_mod")
        pid = os.fork()
        if pid == 0:
            module.outer()
            os._exit(0)
        os.waitpid(pid, 0)
        return 0, 0

    ran, _ = reach.run_jobs([("job", {}, [_step(step)])], package / "scratch")
    assert _lines("outer") <= set(ran["job"])


def test_the_tier1_pass_records_the_first_test_to_run_each_wanted_line(package):
    tests = package / "tests"
    tests.mkdir()
    (tests / "test_fake.py").write_text(
        "import importlib.util\n"
        f"spec = importlib.util.spec_from_file_location('fake', {str(package / PATH)!r})\n"
        "mod = importlib.util.module_from_spec(spec)\n"
        "spec.loader.exec_module(mod)\n"
        "def test_first():\n    mod.branchy(False)\n"
        "def test_second():\n    mod.branchy(True)\n    mod.lead()\n",
        encoding="utf-8",
    )
    wanted = _lines("branchy", "helper")
    ran, failed = reach.run_jobs([reach.tier1_job()], package / "scratch", wanted=wanted)
    assert failed == []
    first = "tests/test_fake.py::test_first"
    second = "tests/test_fake.py::test_second"
    assert ran["tier-1"] == {
        (PATH, line_of("if flag")): first,
        (PATH, line_of('"untaken"')): first,
        (PATH, line_of('"taken"')): second,
        (PATH, line_of("return 1")): second,
    }  # lead's line ran too, but only the wanted lines are traced


@pytest.mark.parametrize(
    ("outcome", "fails"),
    [((1, 0), True), (None, True), ((1, None), False), ((2, 2), False)],
    ids=["wrong-exit", "raises", "any-exit", "expected-exit"],
)
def test_a_job_fails_when_a_step_exits_otherwise_than_expected(package, outcome, fails):
    def step():
        if outcome is None:
            raise RuntimeError("a step's crash")
        return outcome

    jobs = [("job", {}, [_step(step)]), ("healthy", {}, [_calls(package, "helper")])]
    _, failed = reach.run_jobs(jobs, package / "scratch")
    assert failed == (["job"] if fails else [])


def test_each_job_runs_in_its_own_directory_and_environment(package):
    def step():
        with open("seen.txt", "w", encoding="utf-8") as out:
            out.write(os.environ.get("REACH_TEST_VALUE", "unset"))
        return 0, 0

    jobs = [("a", {"REACH_TEST_VALUE": "set"}, [_step(step)]), ("b", {}, [_step(step)])]
    reach.run_jobs(jobs, package / "scratch")
    assert (package / "scratch" / "a" / "seen.txt").read_text(encoding="utf-8") == "set"
    assert (package / "scratch" / "b" / "seen.txt").read_text(encoding="utf-8") == "unset"
    assert "REACH_TEST_VALUE" not in os.environ


# ----------------------------------------------------------------------
# the committed jobs
# ----------------------------------------------------------------------
def _labels():
    return {step.label for _, _, steps in reach.JOBS for step in steps}


def test_every_example_is_run():
    examples = {"examples/" + path.name for path in (ROOT / "examples").glob("*.py")}
    assert examples and examples <= _labels()


def test_every_perf_workload_is_run(monkeypatch):
    # Its dataclasses look their module up in sys.modules.
    spec = importlib.util.spec_from_file_location("reach_perf_workloads",
                                                  ROOT / "perf" / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)
    spec.loader.exec_module(module)
    workloads = module.WORKLOADS
    assert {f"perf/worker.py --workload {name}" for name in workloads} <= _labels()


def test_every_cli_verb_is_run():
    verbs = set()
    for command, parser in _subcommands(build_parser()).items():
        nested = _subcommands(parser)
        verbs |= {f"{command} {name}" for name in nested} if nested else {command}
    ran = {label.split(" ", 1)[1] for label in _labels() if label.startswith("repro ")}
    missing = {verb for verb in verbs if not any(run.startswith(verb + " ") or run == verb
                                                 for run in ran)}
    assert not missing, f"CLI verbs no reach job runs: {sorted(missing)}"


def _subcommands(parser):
    return next(
        (action.choices for action in parser._actions
         if isinstance(action, argparse._SubParsersAction)),
        {},
    )


def test_every_out_of_range_flag_set_exits_2_at_parse(capsys):
    # As reach's own step does: a bound argparse cannot see is the
    # command's exit status, not a SystemExit.
    codes = {}
    for flags in reach.BAD_FLAGS:
        try:
            codes[flags] = cli_main(flags.split())
        except SystemExit as exc:
            codes[flags] = exc.code
    capsys.readouterr()
    assert {flags: code for flags, code in codes.items() if code != 2} == {}
