"""``scripts/reach.py`` finds the defs it should, hooks the calls it
should, and keeps the list it writes.

Each part runs here on a small package written to a temporary directory
(the script reads ``ROOT`` and ``PACKAGE`` as module globals), so no
entry point is run.  The last tests read the committed jobs: every
example, perf workload and CLI verb is one of them.
"""

import argparse
import importlib.util
import os
import sys
import textwrap

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


def outer():
    def inner():
        return 0

    return inner


@functools.lru_cache(maxsize=None)
def decorated():
    return 2


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


def _calls(root, *names):
    """A step that loads the package module and calls ``names`` on it."""

    def step():
        module = _load(root / PATH, "reach_fake_mod")
        for name in names:
            getattr(module, name)()
        return 0, 0

    return _step(step, "calls " + ",".join(names))


# ----------------------------------------------------------------------
# definitions
# ----------------------------------------------------------------------
def test_definitions_are_named_as_path_and_qualname(package):
    assert set(reach.definitions()) == {
        f"{PATH}::{name}"
        for name in ("lead", "helper", "outer", "outer.<locals>.inner", "decorated",
                     "Box.method", "Box.Inner.deep")
    }


def test_a_nested_def_records_its_enclosing_def(package):
    defs = reach.definitions()
    assert defs[f"{PATH}::outer.<locals>.inner"][3] == f"{PATH}::outer"
    assert defs[f"{PATH}::Box.Inner.deep"][3] is None  # a class is not a def


def test_a_decorated_def_starts_at_its_first_decorator(package):
    defs = reach.definitions()
    module = _load(package / PATH, "reach_fake_mod_lines")
    assert defs[f"{PATH}::decorated"][1] == module.decorated.__wrapped__.__code__.co_firstlineno
    assert defs[f"{PATH}::lead"][1] == module.lead.__code__.co_firstlineno


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


def test_span_lines_counts_a_nested_def_once(package):
    defs = reach.definitions()
    outer, inner = f"{PATH}::outer", f"{PATH}::outer.<locals>.inner"
    assert reach.span_lines({inner}, defs) == 2
    assert reach.span_lines({outer, inner}, defs) == reach.span_lines({outer}, defs) == 5
    assert reach.span_lines({outer, f"{PATH}::helper"}, defs) == 7


# ----------------------------------------------------------------------
# the list
# ----------------------------------------------------------------------
def test_read_list_skips_comments_and_blank_lines(tmp_path):
    path = tmp_path / "uncalled.txt"
    path.write_text(textwrap.dedent("""\
        # a comment
        src/repro/a.py::f  reserved: ROADMAP 5, expires PR 50

        src/repro/b.py::C.g
        """), encoding="utf-8")
    assert reach.read_list(path) == {
        "src/repro/a.py::f": "reserved: ROADMAP 5, expires PR 50",
        "src/repro/b.py::C.g": "",
    }
    assert reach.read_list(tmp_path / "missing.txt") == {}


def test_write_list_keeps_the_outcome_of_every_line_that_stays(tmp_path):
    path = tmp_path / "uncalled.txt"
    outcomes = {
        "src/repro/z.py::kept": "failure path: tests/test_z.py::test_kept",
        "src/repro/gone.py::dropped": "reserved: ROADMAP 13, expires PR 50",
    }
    reach.write_list({"src/repro/z.py::kept", "src/repro/a.py::new"}, outcomes, path)
    text = path.read_text(encoding="utf-8")
    assert text.startswith(reach.HEADER)
    assert reach.read_list(path) == {
        "src/repro/a.py::new": "",
        "src/repro/z.py::kept": "failure path: tests/test_z.py::test_kept",
    }
    body = text[len(reach.HEADER):].splitlines()
    assert body == sorted(body) and not any(line.endswith(" ") for line in body)


# ----------------------------------------------------------------------
# the hook and the jobs
# ----------------------------------------------------------------------
def test_the_hook_notes_calls_in_the_package_only(package):
    defs = reach.definitions()

    def step():
        _calls(package, "lead", "decorated")()
        _load(package / "elsewhere.py", "reach_fake_elsewhere").outside()
        return 0, 0

    called, failed = reach.run_jobs([("job", {}, [_step(step)])], package / "scratch")
    assert failed == []
    reached = {key for key, (path, first, _, _) in defs.items() if (path, first) in called["job"]}
    assert reached == {f"{PATH}::{name}" for name in ("lead", "helper", "decorated")}
    assert all(path.startswith("src/repro/") for path, _ in called["job"])


def test_a_forked_child_reports_its_calls_too(package):
    defs = reach.definitions()

    def step():
        module = _load(package / PATH, "reach_fake_mod")
        pid = os.fork()
        if pid == 0:
            module.outer()
            os._exit(0)
        os.waitpid(pid, 0)
        return 0, 0

    called, _ = reach.run_jobs([("job", {}, [_step(step)])], package / "scratch")
    assert defs[f"{PATH}::outer"][:2] in called["job"]


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


def test_a_failure_path_its_test_does_not_call_is_reported(package, monkeypatch):
    # Stand-in for running each named test: the test named calls_lead
    # calls lead (and through it helper); the other calls nothing.
    monkeypatch.setattr(
        reach, "_pytest",
        lambda test: _calls(package, "lead") if "calls_lead" in test else _calls(package),
    )
    outcomes = {
        f"{PATH}::lead": "failure path: tests/test_calls_lead.py::test_it",
        f"{PATH}::helper": "failure path: tests/test_calls_lead.py::test_it",
        f"{PATH}::outer": "failure path: tests/test_other.py::test_it",
        f"{PATH}::decorated": "reserved: ROADMAP 5, expires PR 50",
        "src/repro/gone.py::deleted": "failure path: tests/test_other.py::test_it",
    }
    unreached = reach.unreached_failure_paths(outcomes, reach.definitions(), package / "scratch")
    assert unreached == [f"{PATH}::outer (by tests/test_other.py::test_it)"]


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
