"""Layer map of ``src/repro`` and the profile attribution built on it.

Every source file of the package belongs to exactly one named layer.
The map is keyed on file paths, not on function names, so a change that
fuses, renames or inlines callbacks inside a file cannot move time
between layers or hide it; a *new* file inherits its package's layer,
and a new top-level package fails :func:`check_complete` until someone
decides where it belongs.

:func:`attribute` turns one ``cProfile`` run into per-layer self time
and call counts.  Time spent outside the package (built-ins, the
standard library, numpy) is charged to the layer that asked for it by
walking the caller table upwards until a package function is found; a
function reached from several callers is split between them.
"""

from __future__ import annotations

import os
from typing import Dict, List, Optional, Tuple

#: Report order.  ``offpath`` holds the packages the benchmark leaves
#: out on purpose (no workload runs them); ``other`` is not a place in
#: the source tree but whatever :func:`attribute` could not charge to
#: one: the benchmark's own frames and the profiler's.
LAYERS: Tuple[str, ...] = (
    "simnet.engine",
    "simnet.link",
    "simnet.other",
    "transport",
    "workload",
    "phi.server",
    "phi.channel",
    "phi.failover",
    "phi.replication",
    "phi.client",
    "runner",
    "experiments",
    "metrics",
    "observe",
    "offpath",
    "other",
)

#: Files that leave their package's default layer.
_FILES: Dict[str, str] = {
    "simnet/engine.py": "simnet.engine",
    "simnet/link.py": "simnet.link",
    "simnet/queues.py": "simnet.link",
    "simnet/red.py": "simnet.link",
    "simnet/node.py": "simnet.link",
    "simnet/packet.py": "simnet.link",
    "simnet/topology.py": "simnet.link",
    "phi/server.py": "phi.server",
    "phi/channel.py": "phi.channel",
    "phi/failover.py": "phi.failover",
    "phi/replication.py": "phi.replication",
    "__init__.py": "offpath",
    "cli.py": "offpath",
}

#: Default layer of every file in a package (first path component).
_PACKAGES: Dict[str, str] = {
    "simnet": "simnet.other",
    "transport": "transport",
    "workload": "workload",
    "phi": "phi.client",
    "runner": "runner",
    "experiments": "experiments",
    "metrics": "metrics",
    "telemetry": "observe",
    "flightrec": "observe",
    "simcheck": "observe",
    "remy": "offpath",
    "ipfix": "offpath",
    "diagnosis": "offpath",
    "prediction": "offpath",
    "adaptation": "offpath",
    "prioritization": "offpath",
}


class LayerMapError(Exception):
    """A source file of the package has no layer."""


def layer_of(rel_path: str) -> Optional[str]:
    """Layer of a file given relative to the package root, or None."""
    rel_path = rel_path.replace(os.sep, "/")
    named = _FILES.get(rel_path)
    if named is not None:
        return named
    package, _, rest = rel_path.partition("/")
    return _PACKAGES.get(package) if rest else None


def source_files(package_dir: str) -> List[str]:
    """Every ``.py`` under ``package_dir``, relative, sorted."""
    found = []
    for root, dirs, files in os.walk(package_dir):
        dirs[:] = sorted(d for d in dirs if d != "__pycache__")
        for name in files:
            if name.endswith(".py"):
                found.append(
                    os.path.relpath(os.path.join(root, name), package_dir)
                )
    return sorted(found)


def check_complete(package_dir: str) -> Dict[str, int]:
    """Files per layer; raises :class:`LayerMapError` on an unmapped file."""
    counts: Dict[str, int] = {}
    unmapped = []
    for rel_path in source_files(package_dir):
        layer = layer_of(rel_path)
        if layer is None:
            unmapped.append(rel_path)
        else:
            counts[layer] = counts.get(layer, 0) + 1
    if unmapped:
        raise LayerMapError(
            "no layer for: " + ", ".join(unmapped)
            + " (add the package to perf/layers.py)"
        )
    return counts


# One profiled function as pstats keys it: (file, line, name).
_Func = Tuple[str, int, str]

# Fields of a pstats caller edge: (calls, primitive calls, self, total).
_CALLS, _SELF, _TOTAL = 0, 2, 3


def _split(callers: Dict[_Func, tuple], order: Tuple[int, ...]) -> List[Tuple[_Func, float]]:
    """Caller weights summing to 1, by the first edge field in ``order``
    that is not zero throughout (times can be, for very cheap calls)."""
    for index in order:
        total = sum(edge[index] for edge in callers.values())
        if total > 0:
            return [(caller, edge[index] / total) for caller, edge in callers.items()]
    return []


def attribute(stats: Dict[_Func, tuple], package_dir: str) -> Dict[str, Dict[str, float]]:
    """Per-layer ``self_s`` and ``calls`` from a ``pstats.Stats.stats`` table.

    A package function's self time and calls go to its file's layer.  An
    outside function's self time is split over its callers by the exact
    per-caller self time cProfile records; the part owed to a caller
    that is itself outside the package is passed on to *that* function's
    callers, in proportion to the cumulative time each spent in it, and
    so on up.  The shares are found by fixed-point iteration, which also
    terminates on recursive outside code (json, copy).  What reaches a
    root without meeting the package is ``other``.
    """
    prefix = os.path.join(os.path.abspath(package_dir), "")
    layer: Dict[_Func, Optional[str]] = {}
    for func in stats:
        filename = func[0]
        if filename.startswith(prefix):
            layer[func] = layer_of(filename[len(prefix):]) or "other"
        else:
            layer[func] = None
    outside = [func for func in stats if layer[func] is None]

    # share[f]: the layers an outside function's time belongs to.
    share: Dict[_Func, Dict[str, float]] = {func: {} for func in outside}

    def owners(func: _Func) -> Dict[str, float]:
        owner = layer.get(func)
        return {owner: 1.0} if owner is not None else share.get(func, {})

    upward = {
        func: _split(stats[func][4], (_TOTAL, _SELF, _CALLS)) for func in outside
    }
    for _ in range(64):
        moved = 0.0
        for func in outside:
            fresh: Dict[str, float] = {}
            for caller, weight in upward[func]:
                for name, part in owners(caller).items():
                    fresh[name] = fresh.get(name, 0.0) + weight * part
            moved = max(
                moved, abs(sum(fresh.values()) - sum(share[func].values()))
            )
            share[func] = fresh
        if moved < 1e-9:
            break

    totals = {name: {"self_s": 0.0, "calls": 0} for name in LAYERS}
    for func, (_cc, ncalls, self_s, _ct, callers) in stats.items():
        owner = layer[func]
        if owner is not None:
            totals[owner]["self_s"] += self_s
            totals[owner]["calls"] += ncalls
            continue
        charged = 0.0
        for caller, weight in _split(callers, (_SELF, _TOTAL, _CALLS)):
            for name, part in owners(caller).items():
                totals[name]["self_s"] += self_s * weight * part
                charged += self_s * weight * part
        totals["other"]["self_s"] += self_s - charged
    return totals
