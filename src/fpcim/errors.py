"""The one exception type shared across the simulator, and its number checks."""

import numbers

import numpy as np


class ContractError(ValueError):
    """An operation or a configuration was given arguments outside its contract."""


def is_int(v) -> bool:
    """A Python or numpy integer; ``True`` and ``False`` are not counts or codes."""
    return isinstance(v, (int, np.integer)) and not isinstance(v, bool)


def is_real(v) -> bool:
    """A real number (integers included) that can be range-checked; not a bool."""
    return isinstance(v, numbers.Real) and not isinstance(v, bool)
