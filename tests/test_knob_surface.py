"""Every settable field of the control-plane and supervisor configs is
turned by some caller.

A field that only ever holds its default is an option with one value in
use, which is a module constant instead.  For each field below, some
file under ``src/``, ``benchmarks/``, ``perf/`` or ``scripts/`` other
than the one defining the class must pass it by keyword to the class, so
a knob added back without a caller fails here.  Reads source only: no
simulation runs.
"""

import ast
import dataclasses
import inspect
from functools import lru_cache
from pathlib import Path

import pytest

from repro.phi import ChannelConfig, FailoverConfig, PlaneSpec, ReplicationConfig
from repro.runner import ResilienceConfig
from repro.simnet.engine import WatchdogConfig

ROOT = Path(__file__).resolve().parents[1]
CALLER_DIRS = ("src", "benchmarks", "perf", "scripts")
CONFIGS = (
    ChannelConfig,
    FailoverConfig,
    ResilienceConfig,
    ReplicationConfig,
    WatchdogConfig,
    PlaneSpec,
)


@lru_cache(maxsize=None)
def keywords_by_file():
    """``{path: {(called name, keyword), ...}}`` over every caller file."""
    found = {}
    for directory in CALLER_DIRS:
        for path in sorted((ROOT / directory).rglob("*.py")):
            pairs = set()
            for node in ast.walk(ast.parse(path.read_text(), str(path))):
                if not isinstance(node, ast.Call):
                    continue
                func = node.func
                name = getattr(func, "id", None) or getattr(func, "attr", None)
                pairs.update((name, kw.arg) for kw in node.keywords if kw.arg)
            found[path.resolve()] = pairs
    return found


@pytest.mark.parametrize(
    "config, field",
    [(config, field.name) for config in CONFIGS for field in dataclasses.fields(config)],
    ids=lambda value: getattr(value, "__name__", value),
)
def test_every_knob_has_a_caller(config, field):
    defining = Path(inspect.getsourcefile(config)).resolve()
    callers = [
        path for path, pairs in keywords_by_file().items()
        if path != defining and (config.__name__, field) in pairs
    ]
    assert callers, (
        f"no caller passes {config.__name__}({field}=...): make it a constant"
    )
