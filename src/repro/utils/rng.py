"""Seed / RNG resolution used by all stochastic generators in the package.

Every public API that involves randomness takes a ``seed`` argument that may
be ``None`` (fresh entropy), an integer, or an existing
:class:`numpy.random.Generator`; :func:`resolve_rng` normalizes all three.
"""

from __future__ import annotations

import numpy as np

#: Type alias accepted by every ``seed=`` parameter in the package.
RandomState = int | np.random.Generator | None


def resolve_rng(seed: RandomState = None) -> np.random.Generator:
    """Return a :class:`numpy.random.Generator` for ``seed``.

    Passing an existing generator returns it unchanged (shared stream);
    an int produces a deterministic fresh generator; ``None`` draws fresh
    OS entropy.
    """
    if isinstance(seed, np.random.Generator):
        return seed
    if seed is None or isinstance(seed, (int, np.integer)):
        return np.random.default_rng(seed)
    raise TypeError(f"seed must be None, int, or numpy Generator, got {type(seed).__name__}")

