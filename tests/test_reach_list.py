"""``scripts/unrun.txt`` still names what exists.

``scripts/reach.py`` writes the list: each def in ``src/repro`` with a
line no entry point runs, and the tier-1 tests that first run those
lines.  Running the entry points takes most of an hour, so CI's
``reach`` job does that on push; these checks read files only, and
catch a def or test renamed or deleted since the list was written.
"""

import ast
import importlib.util
from functools import lru_cache
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _load_reach():
    spec = importlib.util.spec_from_file_location("reach", ROOT / "scripts" / "reach.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


reach = _load_reach()


def test_every_entry_names_a_def_that_exists():
    missing = set(reach.read_list()) - reach.definitions()
    assert not missing, f"listed but not defined in src/repro: {sorted(missing)}"


@lru_cache(maxsize=None)
def _module_body(path):
    file = ROOT / path
    return ast.parse(file.read_text(encoding="utf-8")).body if file.is_file() else None


def _test_exists(test_id):
    path, *names = test_id.split("[")[0].split("::")
    scope = _module_body(path)
    if scope is None:
        return False
    for name in names:
        node = next(
            (
                node
                for node in scope
                if isinstance(node, (ast.ClassDef, ast.FunctionDef)) and node.name == name
            ),
            None,
        )
        if node is None:
            return False
        scope = node.body
    return True


def test_every_entry_names_tests_that_exist():
    bad = {
        key: tests
        for key, tests in reach.read_list().items()
        if not tests or not all(_test_exists(test) for test in tests)
    }
    assert not bad, f"entries with no test, or a test that does not exist: {bad}"
