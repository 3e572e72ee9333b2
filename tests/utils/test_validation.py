"""Unit tests for argument-validation helpers."""

import numpy as np
import pytest

from repro.utils.validation import (
    check_non_negative,
    check_positive,
    check_probability,
)


class TestCheckPositive:
    def test_accepts_positive_int(self):
        assert check_positive("n", 3) == 3
        assert isinstance(check_positive("n", 3), int)

    def test_accepts_positive_float(self):
        assert check_positive("n", 2.5) == 2.5

    def test_accepts_numpy_integer(self):
        assert check_positive("n", np.int64(4)) == 4

    def test_rejects_zero(self):
        with pytest.raises(ValueError, match="n must be > 0"):
            check_positive("n", 0)

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            check_positive("n", -1)

    def test_rejects_bool(self):
        with pytest.raises(TypeError):
            check_positive("n", True)

    def test_rejects_string(self):
        with pytest.raises(TypeError):
            check_positive("n", "3")


class TestCheckNonNegative:
    def test_accepts_zero(self):
        assert check_non_negative("n", 0) == 0

    def test_rejects_negative(self):
        with pytest.raises(ValueError, match=">= 0"):
            check_non_negative("n", -0.1)


class TestCheckProbability:
    @pytest.mark.parametrize("value", [0.0, 0.5, 1.0])
    def test_accepts_unit_interval(self, value):
        assert check_probability("p", value) == value

    def test_returns_float(self):
        assert isinstance(check_probability("p", 1), float)

    @pytest.mark.parametrize("value", [-0.01, 1.01, 2])
    def test_rejects_outside(self, value):
        with pytest.raises(ValueError):
            check_probability("p", value)

