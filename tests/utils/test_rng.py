"""Unit tests for RNG resolution."""

import numpy as np
import pytest

from repro.utils.rng import resolve_rng


class TestResolveRng:
    def test_none_gives_generator(self):
        assert isinstance(resolve_rng(None), np.random.Generator)

    def test_int_is_deterministic(self):
        a = resolve_rng(42).integers(0, 1 << 30, size=8)
        b = resolve_rng(42).integers(0, 1 << 30, size=8)
        assert (a == b).all()

    def test_distinct_seeds_differ(self):
        a = resolve_rng(1).integers(0, 1 << 30, size=8)
        b = resolve_rng(2).integers(0, 1 << 30, size=8)
        assert not (a == b).all()

    def test_generator_passthrough(self):
        gen = np.random.default_rng(0)
        assert resolve_rng(gen) is gen

    def test_numpy_integer_seed(self):
        assert isinstance(resolve_rng(np.int32(7)), np.random.Generator)

    def test_rejects_strings(self):
        with pytest.raises(TypeError, match="seed must be"):
            resolve_rng("seed")

