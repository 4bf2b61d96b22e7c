"""Numeric environment knobs, parsed one way everywhere.

Every numeric ``REPRO_*`` knob goes through :func:`env_positive_int`,
:func:`env_positive_float` or :func:`env_probability`: unset or empty
yields None (the caller's default applies), and a malformed or
out-of-range value is ignored with one warning on stderr instead of
taking the run down, so a typo in a deployment's environment is visible
but never fatal.
"""

from __future__ import annotations

import os
import sys
from typing import Callable, Optional


def _env_number(variable: str, parse: Callable, accept: Callable, expected: str):
    raw = os.environ.get(variable, "").strip()
    if not raw:
        return None
    try:
        value = parse(raw)
    except ValueError:
        value = None
    if value is None or not accept(value):
        print(f"warning: ignoring {variable}={raw!r} (expected {expected})", file=sys.stderr)
        return None
    return value


def env_positive_int(variable: str, minimum: int = 1) -> Optional[int]:
    """An integer of at least ``minimum`` from the environment, or None.

    ``minimum=0`` admits a zero that means "none", such as a restart
    budget of no respawns.
    """
    expected = "a positive integer" if minimum == 1 else f"an integer >= {minimum}"
    return _env_number(variable, int, lambda value: value >= minimum, expected)


def env_positive_float(variable: str) -> Optional[float]:
    """A number above zero from the environment, or None (NaN is refused:
    it compares false with everything)."""
    return _env_number(variable, float, lambda value: value > 0.0, "a number above zero")


def env_probability(variable: str) -> Optional[float]:
    """A probability in [0, 1] from the environment, or None."""
    return _env_number(
        variable, float, lambda value: 0.0 <= value <= 1.0, "a probability in [0, 1]"
    )
