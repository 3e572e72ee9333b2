"""Small shared utilities: validation, RNG handling, size parsing.

These helpers are deliberately dependency-light; every other subpackage of
:mod:`repro` may import from here, but :mod:`repro.utils` imports nothing
from the rest of the package.
"""

from repro.utils.rng import RandomState, resolve_rng
from repro.utils.sizes import format_size, parse_size
from repro.utils.validation import (
    check_non_negative,
    check_positive,
    check_probability,
)

__all__ = [
    "RandomState",
    "resolve_rng",
    "format_size",
    "parse_size",
    "check_non_negative",
    "check_positive",
    "check_probability",
]
