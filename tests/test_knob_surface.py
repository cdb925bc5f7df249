"""Every settable value in ``src/repro`` is turned by some caller.

A parameter that only ever holds its default is an option with one value
in use, which is a module constant instead.  The scan covers every
defaulted parameter of an ``__init__``, a module-level function or a
public method, and every field of a ``*Config`` or ``*Spec`` dataclass.
Each must be passed by a call in ``src/``, ``benchmarks/``, ``perf/`` or
``scripts/`` (tests and examples are not callers), or sit on
``ALLOWED`` with its category and reason.

Calls are matched by name, as the AST shows them: a keyword or positional
argument (also through ``partial(f, ...)``), ``super().__init__(...)``,
``cls(...)``, ``replace(x, name=)`` for a dataclass field, and a
``**kwargs`` spread resolved one hop back to the keywords the enclosing
function receives.  Reads source only: no simulation runs.
"""

import ast
from collections import defaultdict
from functools import lru_cache
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SOURCE = ROOT / "src" / "repro"
CALLER_DIRS = ("src", "benchmarks", "perf", "scripts")
ANY_POSITION = 1 << 30


def _each(owners, *names):
    return {(owner, name) for owner in owners for name in names}


#: Settings no caller the scan can see passes, each for a stated reason:
#: ``(category, reason, {(owner, parameter), ...})``.  The owner is the
#: function's name, or the class's for an ``__init__`` or a field.
#:   (a) a deployment setting  (b) a seam only a test turns, to inject a
#:   fault or a fake  (c) a dispatch the AST cannot follow  (d) a field
#:   ``point_key`` hashes  (e) the value an open ROADMAP item will change
ALLOWED = (
    ("a", "the checkout git describes; a test points it outside any repo",
     {("git_describe", "cwd")}),
    ("b", "REPRO_SWEEP_FAULT: tests crash, hang or fail sweep workers",
     _each(["FaultSpec"], "mode", "beta", "run_index", "seed", "once_dir", "hang_s")),
    ("c", "SenderFactory: a workload calls factory(sim, host, spec, size, done)",
     {("WeightedRenoSender", "on_complete")}),
    ("c", "ORACLES: run_oracles calls each as oracle(duration_s=, seed=)",
     _each(["oracle_checked_vs_unchecked", "oracle_flow_permutation",
            "oracle_serial_vs_parallel", "oracle_grid_permutation",
            "oracle_time_dilation", "oracle_replication_identity",
            "oracle_replica_convergence"], "duration_s", "seed")),
    ("c", "FaultScenario.run: seed, duration_s, the grid axes and `fixed` "
          "(the CLI's and the X4/X6 benches') arrive by name",
     _each(["run_degraded_phi_cubic"], "seed", "duration_s", "staleness_ttl_s",
           "outage_period_s")
     | _each(["run_poisoned_phi_cubic"], "seed", "duration_s", "byzantine_fraction",
             "modes", "guarded")),
    ("c", "the CLI's sweep verbs call their builder as manifest(outcome, metrics=)",
     _each(["sweep_manifest", "fault_sweep_manifest"], "metrics")),
    ("d", "hashed by point_key: removing one moves every cache key and config_hash",
     {("DumbbellConfig", "access_delay_fraction"), ("OnOffConfig", "min_flow_bytes")}),
    ("e", "ROADMAP item 5 widens the Remy table's evaluation seeds",
     {("make_table_evaluator", "seeds")}),
    ("e", "DESIGN's A4 (§3.2): informed adaptation sets the dupACK threshold",
     {("CubicSender", "dupack_threshold")}),
)


def _defaulted(func, skip_first):
    """Names of ``func``'s parameters that carry a default, in order."""
    args = func.args
    positional = args.posonlyargs + args.args
    if skip_first:
        positional = positional[1:]
    names = [a.arg for a in positional[len(positional) - len(args.defaults):]]
    names += [a.arg for a, d in zip(args.kwonlyargs, args.kw_defaults) if d is not None]
    return names


def _positions(func, skip_first):
    positional = func.args.posonlyargs + func.args.args
    if skip_first:
        positional = positional[1:]
    return {a.arg: i for i, a in enumerate(positional)}


def _decorators(node):
    names = set()
    for dec in node.decorator_list:
        target = dec.func if isinstance(dec, ast.Call) else dec
        names.add(getattr(target, "id", None) or getattr(target, "attr", None))
    return names


def _is_classvar(annotation):
    return "ClassVar" in ast.unparse(annotation)


@lru_cache(maxsize=None)
def _modules():
    return {
        path: ast.parse(path.read_text(), str(path))
        for path in sorted(SOURCE.rglob("*.py"))
    }


@lru_cache(maxsize=None)
def settings():
    """``{(owner, parameter): (position or None, "module:line", is_field)}``."""
    found = {}
    for path, tree in _modules().items():
        where = path.relative_to(ROOT / "src").with_suffix("").as_posix().replace("/", ".")

        def add(owner, name, position, node, is_field=False):
            found.setdefault((owner, name), (position, f"{where}:{node.lineno}", is_field))

        def visit_function(func, owner, skip_first):
            positions = _positions(func, skip_first)
            for name in _defaulted(func, skip_first):
                add(owner, name, positions.get(name), func)

        def visit_class(cls):
            if cls.name.endswith(("Config", "Spec")) and "dataclass" in _decorators(cls):
                position = 0
                for stmt in cls.body:
                    if (isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name)
                            and not _is_classvar(stmt.annotation)):
                        add(cls.name, stmt.target.id, position, stmt, is_field=True)
                        position += 1
            for stmt in cls.body:
                if isinstance(stmt, ast.ClassDef):
                    visit_class(stmt)
                elif isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    skip_first = "staticmethod" not in _decorators(stmt)
                    if stmt.name == "__init__":
                        visit_function(stmt, cls.name, skip_first)
                    elif not stmt.name.startswith("_"):
                        visit_function(stmt, stmt.name, skip_first)

        for stmt in tree.body:
            if isinstance(stmt, ast.ClassDef):
                visit_class(stmt)
            elif (isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef))
                  and not stmt.name.startswith("_")):
                visit_function(stmt, stmt.name, False)
    return found


@lru_cache(maxsize=None)
def _init_owners():
    """``{called name: {class whose __init__ it reaches}}``: a subclass
    without its own ``__init__`` reaches its base's."""
    bases, has_init = {}, set()
    for tree in _modules().values():
        for node in ast.walk(tree):
            if isinstance(node, ast.ClassDef):
                bases[node.name] = [getattr(b, "id", None) or getattr(b, "attr", None)
                                    for b in node.bases]
                if any(isinstance(s, ast.FunctionDef) and s.name == "__init__"
                       for s in node.body):
                    has_init.add(node.name)

    def owners(name, seen=()):
        if name in has_init or name not in bases:
            return {name}
        found = set()
        for base in bases[name]:
            if base and base not in seen:
                found |= owners(base, seen + (name,))
        return found or {name}

    return {name: owners(name) for name in bases}, bases


class _CallScan(ast.NodeVisitor):
    """Collects ``(owner, keyword)``, positional counts and spreads."""

    def __init__(self, passed, positional, spreads):
        self.passed, self.positional, self.spreads = passed, positional, spreads
        self.classes, self.functions = [], []

    def visit_ClassDef(self, node):
        self.classes.append(node.name)
        self.generic_visit(node)
        self.classes.pop()

    def visit_FunctionDef(self, node):
        self.functions.append(node)
        self.generic_visit(node)
        self.functions.pop()

    visit_AsyncFunctionDef = visit_FunctionDef

    def _targets(self, func):
        init_owners, bases = _init_owners()
        name = getattr(func, "id", None) or getattr(func, "attr", None)
        if (name == "__init__" and isinstance(getattr(func, "value", None), ast.Call)
                and getattr(func.value.func, "id", None) == "super" and self.classes):
            return {o for b in bases.get(self.classes[-1], ()) if b
                    for o in init_owners.get(b, {b})}
        if name == "cls" and self.classes:
            name = self.classes[-1]
        if name in ("replace", "_replace"):
            return {"<replace>"}
        return set(init_owners.get(name, {name})) | {name}

    def visit_Call(self, node):
        args = node.args
        if getattr(node.func, "id", getattr(node.func, "attr", None)) == "partial" and args:
            # ``partial(f, *args, **kwargs)`` passes them to ``f``.
            targets, args = self._targets(args[0]), args[1:]
        else:
            targets = self._targets(node.func)
        count = 0
        for arg in args:
            if isinstance(arg, ast.Starred):
                count = ANY_POSITION
                break
            count += 1
        if targets == {"<replace>"}:
            count = 0  # the first argument is the instance
        for target in targets:
            self.positional[target] = max(self.positional[target], count)
            for kw in node.keywords:
                if kw.arg:
                    self.passed.add((target, kw.arg))
                elif self.functions and isinstance(kw.value, ast.Name):
                    enclosing = self.functions[-1]
                    if enclosing.args.kwarg and enclosing.args.kwarg.arg == kw.value.id:
                        self.spreads.append((target, enclosing.name))
        self.generic_visit(node)


@lru_cache(maxsize=None)
def callers():
    """``(passed, positional)``: every ``(owner, keyword)`` some caller
    passes, and the most positional arguments any call to an owner has."""
    passed, positional, spreads = set(), defaultdict(int), []
    for directory in CALLER_DIRS:
        for path in sorted((ROOT / directory).rglob("*.py")):
            _CallScan(passed, positional, spreads).visit(ast.parse(path.read_text(), str(path)))
    for target, enclosing in spreads:
        passed |= {(target, kw) for owner, kw in set(passed) if owner == enclosing}
    return frozenset(passed), dict(positional)


@lru_cache(maxsize=None)
def unturned():
    """``{(owner, parameter): "module:line"}`` of every setting no caller passes."""
    passed, positional = callers()
    missing = {}
    for (owner, name), (position, where, is_field) in settings().items():
        if (owner, name) in passed or (is_field and ("<replace>", name) in passed):
            continue
        if position is not None and positional.get(owner, 0) > position:
            continue
        missing[(owner, name)] = where
    return missing


def allowed():
    return {key for _, _, keys in ALLOWED for key in keys}


def test_allow_list_is_small_explained_and_current():
    assert len(ALLOWED) <= 9
    for category, reason, keys in ALLOWED:
        assert category in ("a", "b", "c", "d", "e") and reason and keys
    assert allowed() <= set(settings()), "an allowed name is no setting"
    turned = sorted(allowed() - set(unturned()))
    assert not turned, f"a caller passes these now: take them off ALLOWED: {turned}"


@pytest.mark.parametrize("key", sorted(settings()), ids="{0[0]}.{0[1]}".format)
def test_every_setting_has_a_caller(key):
    assert key in allowed() or key not in unturned(), (
        f"no caller passes {key[0]}({key[1]}=...) ({unturned()[key]}): make it a constant"
    )
