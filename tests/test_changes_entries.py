"""Every CHANGES.md line stays short.

An entry is a ``PR <n>:`` line: what changed, what moved and where the
proof is; the same-work evidence belongs in the commit message.  A line
longer than ``ENTRY_LIMIT_BYTES`` fails.  The entries that were already
longer when the limit came in are wrapped over several lines, their text
unchanged.
"""

import re
from pathlib import Path

CHANGES = Path(__file__).resolve().parents[1] / "CHANGES.md"
ENTRY_LIMIT_BYTES = 1500


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
