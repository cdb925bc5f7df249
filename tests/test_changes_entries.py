"""Every CHANGES.md entry stays short.

An entry is one line: what changed, what moved and where the proof is;
the same-work evidence belongs in the commit message.  A line longer
than ``ENTRY_LIMIT_BYTES`` fails, unless it is the entry of a PR on
``OVERSIZED``: the entries that were already longer when the limit came
in.  The list may only shrink — an entry rewrapped under the limit
leaves it, and nothing joins it.
"""

import re
from pathlib import Path

CHANGES = Path(__file__).resolve().parents[1] / "CHANGES.md"
ENTRY_LIMIT_BYTES = 1500

#: PR numbers whose entries were over the limit when it came in.
OVERSIZED = frozenset({3, 4, 6, 8, 9, 10, 13, 14, 15, 16, 17, 18, 19, 20, 35, 36, 38, 39, 40})


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
    over = [(pr, number) for pr, number in _long_lines() if pr not in OVERSIZED]
    assert not over, (
        f"CHANGES.md lines over {ENTRY_LIMIT_BYTES} bytes (pr, line): {over}; "
        "keep what changed, what moved and where the proof is"
    )


def test_oversized_list_only_shrinks():
    assert len(OVERSIZED) <= 19
    still_long = {pr for pr, _number in _long_lines()}
    # An entry rewrapped under the limit leaves the list.
    assert OVERSIZED <= still_long, sorted(OVERSIZED - still_long)
