"""Nothing in ``src/repro`` is kept for tests alone.

Three scans, over source only (no simulation runs):

- **Stored state.** Every attribute code under ``src/repro`` stores
  (``x.name = ``, ``x.name += ``, ``x.name: T = ``, or through a
  subscript, ``x.name[k] = ``) and every name in a
  ``__slots__`` must be loaded somewhere in ``src/``, ``benchmarks/``,
  ``examples/``, ``scripts/`` or ``perf/`` (tests are not readers), or
  sit on ``ALLOWED`` with its reason.  A field written on every hop or
  call but read only by tests costs every run and shows nothing.  Dunder
  names (``__qualname__``, ``__doc__``) are the interpreter's to read.
- **Definitions.** Every function, method, property and class defined in
  ``src/repro`` must be loaded by name in those readers, sit on
  ``DEFINITIONS_ALLOWED`` with its category and reason, or be a name in a
  def ``scripts/uncalled.txt`` reserves for an open ROADMAP item (the one
  register of reservations, with their expiry; see
  ``tests/test_reach_list.py``).  Dunder methods are the interpreter's to
  call.
- **Disabled telemetry.** Every ``registry.counter/gauge/histogram(...)``
  call in ``src/`` sits under an ``if`` that tests ``.enabled``: a
  disabled run never reaches the registry, so the disabled registry
  needs no metric objects of its own.

Loads are matched by name, as the AST shows them: ``x.name`` in load
context, or ``getattr`` / ``hasattr`` with the name as a constant; the
definition scan also counts a bare name (a call, a decorator, a dict or
``set_defaults`` value).  A load that only feeds an update of the same
name does not count: one inside the statement that stores it (``x.peak =
max(x.peak, v)``, ``x.tally[k] = x.tally.get(k, 0) + 1``), or in the test
of an ``if`` whose body only assigns (``if v > x.peak: x.peak = v``).

Matching by name has a blind spot: a field is taken as read when any
field of that name anywhere is.  ``ChannelStats.successes`` and
``failures`` went unflagged while ``ReplicaHealth.successes`` and
``failures`` were read, until a grep found them.  ``scripts/reach.py``
has no such blind spot: it lists the defs no entry point calls.
"""

import ast
from functools import lru_cache
from pathlib import Path

from .test_reach_list import reserved_names

ROOT = Path(__file__).resolve().parents[1]
WRITER_DIRS = ("src/repro",)
READER_DIRS = ("src", "benchmarks", "examples", "scripts", "perf")
METRIC_FACTORIES = ("counter", "gauge", "histogram")

#: Stored attributes no reader the scan can see loads, each with its reason.
ALLOWED = {
    "early_drops": "RED's early-drop count, written only on the early-drop "
                   "branches: the integration test's proof that they ran",
    "_packet_ids": "packet.py's id counter, a module global each Simulator "
                   "rebinds; packet.py reads it as a bare name",
}

#: Definitions no reader the scan can see loads: ``{name: (category,
#: reason)}``.  (a) a seam only a test turns  (d) a call the AST cannot
#: see.  A name an open
#: ROADMAP item uses is reserved on ``scripts/uncalled.txt`` instead.
DEFINITIONS_ALLOWED = {
    "to_env": ("a", "FaultSpec.to_env: tests crash, hang or fail sweep workers "
                    "through REPRO_SWEEP_FAULT"),
    "trim": ("d", "_Ring.trim: called from the recorder's generated emitters"),
}


def _trees(directories):
    for directory in directories:
        for path in sorted((ROOT / directory).rglob("*.py")):
            yield path.relative_to(ROOT), ast.parse(path.read_text(), str(path))


def _is_dunder(name):
    return name.startswith("__") and name.endswith("__")


def _stored_attributes(node):
    """The attribute nodes ``node`` stores: ``x.name = `` and ``x.name[k] = ``."""
    for sub in ast.walk(node):
        if isinstance(sub, ast.Attribute) and isinstance(sub.ctx, ast.Store):
            yield sub
        elif (
            isinstance(sub, ast.Subscript)
            and isinstance(sub.ctx, ast.Store)
            and isinstance(sub.value, ast.Attribute)
        ):
            yield sub.value


def _stored_names(node):
    return {sub.attr for sub in _stored_attributes(node)}


@lru_cache(maxsize=None)
def _stores():
    """``{attribute: "path:line"}`` for every attribute the writers store."""
    found = {}
    for path, tree in _trees(WRITER_DIRS):
        for node in _stored_attributes(tree):
            found.setdefault(node.attr, f"{path}:{node.lineno}")
        for node in ast.walk(tree):
            if isinstance(node, ast.Assign) and any(
                isinstance(target, ast.Name) and target.id == "__slots__"
                for target in node.targets
            ):
                for item in ast.walk(node.value):
                    if isinstance(item, ast.Constant) and isinstance(item.value, str):
                        found.setdefault(item.value, f"{path}:{node.lineno}")
    return {name: where for name, where in found.items() if not _is_dunder(name)}


def _definitions(trees):
    """``{name: "path:line"}`` for every def and class in ``trees``."""
    found = {}
    for path, tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                if not _is_dunder(node.name):
                    found.setdefault(node.name, f"{path}:{node.lineno}")
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


def _loads(trees, bare=False):
    """Names ``trees`` load as attributes (and as bare names if ``bare``)."""
    found = set()
    for _path, tree in trees:
        skipped = _update_reads(tree)
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                if id(node) not in skipped:
                    found.add(node.attr)
            elif bare and isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                found.add(node.id)
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


def _unloaded(defining, reading):
    loaded = _loads(reading, bare=True)
    return {
        name: where for name, where in _definitions(defining).items() if name not in loaded
    }


@lru_cache(maxsize=None)
def _unloaded_definitions():
    return _unloaded(_trees(WRITER_DIRS), _trees(READER_DIRS))


def _unguarded_metric_calls(trees):
    """``path:line`` of each registry metric call outside an ``.enabled`` test."""
    found = []
    for path, tree in trees:
        guarded = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.If) and any(
                isinstance(sub, ast.Attribute) and sub.attr == "enabled"
                for sub in ast.walk(node.test)
            ):
                guarded.update(id(sub) for statement in node.body for sub in ast.walk(statement))
        for node in ast.walk(tree):
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr in METRIC_FACTORIES
                and "registry" in ast.unparse(node.func.value)
                and id(node) not in guarded
            ):
                found.append(f"{path}:{node.lineno}")
    return sorted(found, key=lambda where: int(where.rsplit(":", 1)[1]))


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


def test_every_definition_is_loaded_outside_tests():
    allowed = set(DEFINITIONS_ALLOWED) | reserved_names()
    unloaded = {
        name: where for name, where in _unloaded_definitions().items()
        if name not in allowed
    }
    assert not unloaded, (
        "defined but never loaded outside tests (delete it, or give it a caller): "
        + ", ".join(f"{name} ({where})" for name, where in sorted(unloaded.items()))
    )


def test_allowed_definitions_are_few_stated_and_still_unloaded():
    assert len(DEFINITIONS_ALLOWED) <= 2
    for category, reason in DEFINITIONS_ALLOWED.values():
        assert category in "ad" and reason.strip()
    assert set(DEFINITIONS_ALLOWED) <= set(_unloaded_definitions())


def test_registry_calls_sit_under_an_enabled_test():
    unguarded = _unguarded_metric_calls(_trees(("src",)))
    assert not unguarded, (
        "registry metric call outside `if ... .enabled:` (the disabled "
        "registry has no metrics): " + ", ".join(unguarded)
    )


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
        "s.tally[k] = s.tally.get(k, 0) + 1\n"
        "s.seen[k] = s.count\n"
    )
    tree = ast.parse(source)
    assert _loads([("snippet", tree)]) >= {"countdown", "chain", "count"}
    assert not _loads([("snippet", tree)]) & {"hops", "peak", "high", "tally", "seen"}
    assert _stored_names(tree) >= {"tally", "seen"}


def test_a_definition_counts_as_read_by_any_load_outside_tests():
    defining = ast.parse(
        "class Model:\n"
        "    def by_attribute(self): ...\n"
        "    def by_getattr(self): ...\n"
        "    def only_tested(self): ...\n"
        "def by_name(): ...\n"
        "def in_a_table(): ...\n"
        "def a_verb(): ...\n"
    )
    reading = ast.parse(
        "m = Model()\n"
        "m.by_attribute()\n"
        "getattr(m, 'by_getattr')()\n"
        "by_name()\n"
        "TABLE = {'x': in_a_table}\n"
        "parser.set_defaults(handler=a_verb)\n"
    )
    testing = ast.parse("Model().only_tested()\n")
    assert _loads([("tests/test_model.py", testing)], bare=True) >= {"only_tested"}
    assert not any(Path(directory).parts[0] == "tests" for directory in READER_DIRS)
    assert set(_unloaded([("src/model.py", defining)], [("src/use.py", reading)])) == {
        "only_tested"
    }


def test_an_unguarded_registry_call_is_flagged():
    tree = ast.parse(
        "tele = session()\n"
        "if tele.enabled:\n"
        "    tele.registry.counter('a').inc()\n"
        "if ready and tele.enabled:\n"
        "    registry = tele.registry\n"
        "    registry.gauge('b').set(1)\n"
        "else:\n"
        "    registry.histogram('c').observe(1)\n"
        "tele.registry.counter('d').inc()\n"
    )
    assert _unguarded_metric_calls([("snippet", tree)]) == ["snippet:8", "snippet:9"]
