"""Every attribute the data plane stores is read by the program.

The simulator's per-packet and per-flow state is written on the hot path:
a field written on every hop but read only by tests costs every run and
shows nothing.  The scan collects every attribute that code under
``src/repro/simnet`` and ``src/repro/transport`` stores (``x.name = ``,
``x.name += ``, ``x.name: T = ``) and every name in a ``__slots__``.  Each
must be loaded somewhere in ``src/``, ``benchmarks/``, ``examples/``,
``scripts/`` or ``perf/`` (tests are not readers), or sit on ``ALLOWED``
with its reason.

Loads are matched by name, as the AST shows them: ``x.name`` in load
context, or ``getattr`` / ``hasattr`` with the name as a constant.  A
load that only feeds an update of the same name does not count: one
inside the statement that stores it (``x.peak = max(x.peak, v)``), or in
the test of an ``if`` whose body only assigns (``if v > x.peak: x.peak =
v``).  Reads source only: no simulation runs.
"""

import ast
from functools import lru_cache
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
WRITER_DIRS = ("src/repro/simnet", "src/repro/transport")
READER_DIRS = ("src", "benchmarks", "examples", "scripts", "perf")

#: Stored attributes no reader the scan can see loads, each with its reason.
ALLOWED = {
    "early_drops": "RED's early-drop count, written only on the early-drop "
                   "branches: the integration test's proof that they ran",
    "_packet_ids": "packet.py's id counter, a module global each Simulator "
                   "rebinds; packet.py reads it as a bare name",
}


def _trees(directories):
    for directory in directories:
        for path in sorted((ROOT / directory).rglob("*.py")):
            yield path.relative_to(ROOT), ast.parse(path.read_text(), str(path))


def _stored_names(node):
    return {
        sub.attr
        for sub in ast.walk(node)
        if isinstance(sub, ast.Attribute) and isinstance(sub.ctx, ast.Store)
    }


@lru_cache(maxsize=None)
def _stores():
    """``{attribute: "path:line"}`` for every attribute the writers store."""
    found = {}
    for path, tree in _trees(WRITER_DIRS):
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store):
                found.setdefault(node.attr, f"{path}:{node.lineno}")
            elif isinstance(node, ast.Assign) and any(
                isinstance(target, ast.Name) and target.id == "__slots__"
                for target in node.targets
            ):
                for item in ast.walk(node.value):
                    if isinstance(item, ast.Constant) and isinstance(item.value, str):
                        found.setdefault(item.value, f"{path}:{node.lineno}")
    return found


def _update_reads(tree):
    """Ids of the loads in ``tree`` that only feed an update of their name."""
    skipped = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign)):
            names, scope = _stored_names(node), node
        elif isinstance(node, ast.If) and not node.orelse and all(
            isinstance(statement, (ast.Assign, ast.AugAssign)) for statement in node.body
        ):
            names, scope = set().union(*map(_stored_names, node.body)), node.test
        else:
            continue
        skipped.update(
            id(sub)
            for sub in ast.walk(scope)
            if isinstance(sub, ast.Attribute)
            and isinstance(sub.ctx, ast.Load)
            and sub.attr in names
        )
    return skipped


def _loads(trees):
    found = set()
    for _path, tree in trees:
        skipped = _update_reads(tree)
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                if id(node) not in skipped:
                    found.add(node.attr)
            elif (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Name)
                and node.func.id in ("getattr", "hasattr")
                and len(node.args) >= 2
                and isinstance(node.args[1], ast.Constant)
            ):
                found.add(node.args[1].value)
    return found


@lru_cache(maxsize=None)
def _unread():
    loaded = _loads(_trees(READER_DIRS))
    return {name: where for name, where in _stores().items() if name not in loaded}


def test_every_stored_attribute_has_a_reader():
    unread = {name: where for name, where in _unread().items() if name not in ALLOWED}
    assert not unread, (
        "stored but never read outside tests (delete it, or give it a reader): "
        + ", ".join(f"{name} ({where})" for name, where in sorted(unread.items()))
    )


def test_allowed_entries_are_few_stated_and_still_unread():
    assert len(ALLOWED) <= 3
    assert all(reason.strip() for reason in ALLOWED.values())
    # An entry that gained a reader, or lost its writer, leaves the list.
    assert set(ALLOWED) <= set(_unread())


def test_update_of_a_name_is_not_its_read():
    source = (
        "s.hops += 1\n"
        "s.peak = max(s.peak, v)\n"
        "if v > s.high:\n"
        "    s.high = v\n"
        "if s.countdown <= 0:\n"
        "    s.countdown = 10\n"
        "    check(s)\n"
        "getattr(s, 'chain', None)\n"
    )
    tree = ast.parse(source)
    assert _loads([("snippet", tree)]) >= {"countdown", "chain"}
    assert not _loads([("snippet", tree)]) & {"hops", "peak", "high"}
