"""Shared helpers for the reproduction benchmarks.

Every bench regenerates one of the paper's tables or figures and prints a
paper-shaped report.  Scale is controlled by ``PHI_BENCH_FULL=1`` in the
environment: the default ("reduced") scale finishes in tens of seconds
per bench while preserving every qualitative shape; full scale matches
the paper's durations and sweep sizes.
"""

from __future__ import annotations

import os
from contextlib import contextmanager

FULL_SCALE = os.environ.get("PHI_BENCH_FULL", "") == "1"


def scaled(reduced, full):
    """Pick the reduced or full-scale value of a knob."""
    return full if FULL_SCALE else reduced


@contextmanager
def report(capfd, title: str):
    """Print a bench report section with capture disabled.

    pytest captures stdout by default; the benches' whole point is their
    printed tables, so each one opens this context to write through.
    """
    with capfd.disabled():
        print()
        print("=" * 72)
        print(title + ("  [FULL SCALE]" if FULL_SCALE else "  [reduced scale]"))
        print("=" * 72)
        yield
        print()


def run_once(benchmark, func):
    """Run a heavy scenario exactly once under pytest-benchmark timing."""
    return benchmark.pedantic(func, rounds=1, iterations=1, warmup_rounds=0)

