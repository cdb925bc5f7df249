"""Every CHANGES.md line, and every PR's whole entry, stays short.

An entry is a ``PR <n>:`` line: what changed, what moved and where the
proof is; the same-work evidence belongs in the commit message.  A line
longer than ``ENTRY_LIMIT_BYTES`` fails.  The entries that were already
longer when the limit came in are wrapped over several lines, their text
unchanged.

A bound on lines alone passes an entry of any length wrapped over many
lines, or split over ``PR <n> tests:``-style lines.  So from PR
``PR_LIMIT_FROM`` on, all of one PR's lines — every line that starts
``PR <n>``, with the continuation lines under it — together stay under
``PR_LIMIT_BYTES``.  Older entries are not rewritten.
"""

import re
from pathlib import Path

CHANGES = Path(__file__).resolve().parents[1] / "CHANGES.md"
ENTRY_LIMIT_BYTES = 1500
PR_LIMIT_BYTES = 3000
PR_LIMIT_FROM = 48

#: A line that starts a new item: a PR's line, or a FOUND/MENDED note.
_ITEM = re.compile(r"(PR (\d+)\b|FOUND:|MENDED:)")


def _long_lines():
    """``(pr, line number)`` of each line over the limit; ``pr`` is None
    for a line that is not a ``PR <n>:`` entry."""
    found = []
    for number, line in enumerate(CHANGES.read_text(encoding="utf-8").splitlines(), 1):
        if len(line.encode("utf-8")) > ENTRY_LIMIT_BYTES:
            match = re.match(r"PR (\d+):", line)
            found.append((int(match.group(1)) if match else None, number))
    return found


def test_no_entry_over_the_limit():
    over = _long_lines()
    assert not over, (
        f"CHANGES.md lines over {ENTRY_LIMIT_BYTES} bytes (pr, line): {over}; "
        "keep what changed, what moved and where the proof is"
    )


def pr_entry_bytes(text):
    """``{pr: bytes}``: each PR's ``PR <n>`` lines plus the continuation
    lines (neither blank nor the start of another item) that follow them."""
    sizes = {}
    pr = None
    for line in text.splitlines():
        match = _ITEM.match(line)
        if match:
            pr = int(match.group(2)) if match.group(2) else None
        elif not line.strip():
            pr = None
        if pr is not None:
            sizes[pr] = sizes.get(pr, 0) + len(line.encode("utf-8"))
    return sizes


def test_no_pr_entry_over_the_limit():
    sizes = pr_entry_bytes(CHANGES.read_text(encoding="utf-8"))
    over = {pr: size for pr, size in sizes.items()
            if pr >= PR_LIMIT_FROM and size > PR_LIMIT_BYTES}
    assert not over, (
        f"PR entries over {PR_LIMIT_BYTES} bytes (pr: bytes): {over}; "
        "the evidence belongs in the commit message"
    )


def test_an_entry_is_its_pr_lines_and_their_continuations():
    text = "\n".join([
        "PR 47: " + "a" * 10,
        "PR 48: " + "b" * 10,
        "c" * 5,
        "PR 48 tests: " + "d" * 4,
        "FOUND: " + "e" * 100,
        "",
        "f" * 100,
        "PR 49 checks: x",
    ])
    assert pr_entry_bytes(text) == {47: 17, 48: 17 + 5 + 17, 49: 15}
