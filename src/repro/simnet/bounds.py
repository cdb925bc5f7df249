"""The one check behind every numeric bound a config, model constructor
or CLI flag states, so each bound is written once, by the model that owns
it.  A NaN fails every bound (a bare ``x <= 0`` waves it through), and so
does an infinity unless the call site passes ``inf=True``."""

from __future__ import annotations

import math
from numbers import Integral


def check(name, value, *, gt=None, ge=None, lt=None, le=None,
          integer=False, inf=False):
    """``value`` if it is within the bound, else ``ValueError``.

    ``gt``/``ge``/``lt``/``le`` are the bound's ends (none: any finite
    number); ``integer`` asks for an integral type, so 2.5 and NaN fail.
    The message is ``<name> must be <bound>: <value>``."""
    if (
        (isinstance(value, Integral) if integer else value == value)
        and (inf or -math.inf < value < math.inf)
        and (gt is None or value > gt)
        and (ge is None or value >= ge)
        and (lt is None or value < lt)
        and (le is None or value <= le)
    ):
        return value
    raise ValueError(f"{name} must be {_describe(value, gt, ge, lt, le, integer, inf)}: {value}")


def _describe(value, gt, ge, lt, le, integer, inf) -> str:
    """The bound ``value`` missed, naming finiteness only when it was that."""
    low = f"> {gt}" if gt is not None else f">= {ge}" if ge is not None else ""
    high = f"< {lt}" if lt is not None else f"<= {le}" if le is not None else ""
    if low and high:
        bound = (f"in {'[' if gt is None else '('}{ge if gt is None else gt}, "
                 f"{le if lt is None else lt}{']' if lt is None else ')'}")
    else:
        bound = low or high
    if integer:
        return f"an integer {bound}".rstrip()
    if inf or -math.inf < value < math.inf:
        return bound or "a number"
    return f"finite and {bound}" if bound else "finite"
