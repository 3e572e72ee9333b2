"""Argument-validation helpers used across the package.

All helpers raise :class:`ValueError` or :class:`TypeError` with a message
naming the offending parameter, and return the (possibly coerced) value so
they can be used inline::

    self.nodes = check_positive("nodes", nodes)
"""

from __future__ import annotations

from numbers import Integral, Real
from typing import Any


def check_positive(name: str, value: Any) -> int | float:
    """Require a strictly positive number; integral values are returned as int."""
    if not isinstance(value, Real) or isinstance(value, bool):
        raise TypeError(f"{name} must be a number, got {type(value).__name__}")
    if value <= 0:
        raise ValueError(f"{name} must be > 0, got {value!r}")
    return int(value) if isinstance(value, Integral) else float(value)


def check_non_negative(name: str, value: Any) -> int | float:
    """Require a number >= 0; integral values are returned as int."""
    if not isinstance(value, Real) or isinstance(value, bool):
        raise TypeError(f"{name} must be a number, got {type(value).__name__}")
    if value < 0:
        raise ValueError(f"{name} must be >= 0, got {value!r}")
    return int(value) if isinstance(value, Integral) else float(value)


def check_probability(name: str, value: Any) -> float:
    """Require a float in [0, 1]."""
    if not isinstance(value, Real) or isinstance(value, bool):
        raise TypeError(f"{name} must be a number, got {type(value).__name__}")
    if not (0.0 <= value <= 1.0):
        raise ValueError(f"{name} must be in [0, 1], got {value!r}")
    return float(value)

