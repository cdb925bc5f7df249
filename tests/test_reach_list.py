"""The outcomes on ``scripts/uncalled.txt`` still hold.

``scripts/reach.py`` lists the defs in ``src/repro`` that no entry point
calls, and each one on the list carries exactly one outcome:

- ``failure path: <test id>``: only a failure reaches it, and the named
  tier-1 test is one that does;
- ``reserved: ROADMAP <item>, expires PR <n>``: an open ROADMAP item
  needs it, and once CHANGES.md reaches PR ``n`` without the item
  giving it a caller, it is deleted.

Running the entry points takes minutes, so CI's ``reach`` job does that,
and runs each named test to see it reach its def.  These checks read
files only: every entry names a def that exists, every named test
exists, every reserved item is open on ROADMAP.md and no reservation has
expired.
"""

import ast
import importlib.util
import re
from functools import lru_cache
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _load_reach():
    spec = importlib.util.spec_from_file_location("reach", ROOT / "scripts" / "reach.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


reach = _load_reach()
FAILURE_PATH, RESERVED = reach.FAILURE_PATH, reach.RESERVED


@lru_cache(maxsize=None)
def entries():
    return reach.read_list()


def reserved():
    """``{path::qualname: (item, expiry PR)}`` of the reserved entries."""
    found = {}
    for key, outcome in entries().items():
        match = RESERVED.fullmatch(outcome)
        if match:
            found[key] = (int(match["item"]), int(match["pr"]))
    return found


def reserved_names():
    """The class and def names on the path to each reserved def (a def
    nested in a function adds nothing past that function)."""
    return {
        name
        for key in reserved()
        for name in key.split("::")[1].split(".<locals>.")[0].split(".")
    }


def open_roadmap_items(text):
    """Numbers of the items under ``## Open items`` that are not retired."""
    section = text.split("## Open items", 1)[1].split("\n## ", 1)[0]
    return {
        int(match[1])
        for match in re.finditer(r"^(\d+)\. (\*\*|\*Retired)", section, re.MULTILINE)
        if match[2] == "**"
    }


def latest_pr(text):
    return max(int(number) for number in re.findall(r"^PR (\d+):", text, re.MULTILINE))


def test_the_parsers_read_what_they_should():
    assert FAILURE_PATH.fullmatch("failure path: tests/runner/test_x.py::TestY::test_z")
    assert RESERVED.fullmatch("reserved: ROADMAP 10(B), expires PR 50").group("item", "pr") == (
        "10", "50")
    assert not RESERVED.fullmatch("reserved: might be useful later")
    assert open_roadmap_items(
        "## Open items\n1. **Open.**\n2. *Retired: gone.*\n3. **Open too.**\n## Recent\n4. **x**"
    ) == {1, 3}
    assert latest_pr("PR 9: a\nFOUND: PR 99: b\nPR 12: c\n") == 12


def test_the_list_is_sorted_and_names_defs_that_exist():
    keys = list(entries())
    assert keys == sorted(keys)
    missing = set(keys) - set(reach.definitions())
    assert not missing, f"listed but not defined in src/repro: {sorted(missing)}"


def test_every_entry_has_exactly_one_outcome():
    bad = {
        key: outcome
        for key, outcome in entries().items()
        if not (FAILURE_PATH.fullmatch(outcome) or RESERVED.fullmatch(outcome))
    }
    assert not bad, f"no outcome (delete the def, or name a failure test or reservation): {bad}"


def _test_exists(test_id):
    path, *names = test_id.split("::")
    file = ROOT / path
    if not file.is_file():
        return False
    scope = ast.parse(file.read_text(encoding="utf-8")).body
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


def test_every_failure_path_names_a_test_that_exists():
    missing = {
        key: match["test"]
        for key, outcome in entries().items()
        if (match := FAILURE_PATH.fullmatch(outcome)) and not _test_exists(match["test"])
    }
    assert not missing, f"failure-path tests that do not exist: {missing}"


def test_every_reservation_names_an_open_item():
    items = open_roadmap_items((ROOT / "ROADMAP.md").read_text(encoding="utf-8"))
    closed = {key: item for key, (item, _) in reserved().items() if item not in items}
    assert not closed, f"reserved for a ROADMAP item that is not open: {closed}"


def test_no_reservation_has_expired():
    now = latest_pr((ROOT / "CHANGES.md").read_text(encoding="utf-8"))
    expired = {key: pr for key, (_, pr) in reserved().items() if now >= pr}
    assert not expired, (
        f"CHANGES.md is at PR {now}; delete these and let the item that needs "
        f"them bring them back: {expired}"
    )
