"""Exception types shared across the package, and the check that a number
field holds a finite double."""

import math
from numbers import Real


class ParameterError(ValueError):
    """An argument violates a documented precondition."""


class ScheduleError(ParameterError):
    """A step-size schedule produced a value the update rule cannot accept."""


class EnvUsageError(RuntimeError):
    """An environment was driven past a terminal state."""


class DivergenceError(RuntimeError):
    """Iterates left the representable range (NaN or infinity)."""


def finite_float(name: str, value) -> float:
    """``value`` as a double, if it is a real number (an int, a float, a
    numpy scalar) whose double is finite; anything else, an int too large for
    a double among them, is one ParameterError naming ``name``."""
    if isinstance(value, Real):
        try:
            x = float(value)
        except OverflowError:
            x = math.inf
        if math.isfinite(x):
            return x
    raise ParameterError(f"{name} must be a finite number, got {value!r}")
