"""Unit tests for the terminal heatmap renderer."""

import numpy as np
import pytest

from repro.bench.heatmap import render_heatmap, render_speedup_grid, shade_for_speedup


class TestShadeForSpeedup:
    def test_parity_is_middle_shade(self):
        from repro.bench.heatmap import _SHADES

        middle = _SHADES.index(shade_for_speedup(1.0))
        assert abs(middle - (len(_SHADES) - 1) / 2) <= 0.5

    def test_extremes(self):
        assert shade_for_speedup(1000.0) == "@"
        assert shade_for_speedup(0.001) == " "

    def test_monotone(self):
        from repro.bench.heatmap import _SHADES

        shades = [shade_for_speedup(v) for v in (0.05, 0.3, 1.0, 3.0, 20.0)]
        indices = [_SHADES.index(s) for s in shades]
        assert indices == sorted(indices)

    def test_invalid_values(self):
        assert shade_for_speedup(0.0) == "?"
        assert shade_for_speedup(float("nan")) == "?"


class TestRenderHeatmap:
    def test_contains_labels_and_values(self):
        text = render_heatmap(
            [[1.0, 2.0], [0.5, 8.0]], ["r1", "r2"], ["c1", "c2"], title="T"
        )
        for token in ("T", "r1", "r2", "c1", "c2", "1.00", "8.00", "shades:"):
            assert token in text

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError, match="does not match labels"):
            render_heatmap([[1.0]], ["a", "b"], ["c"])

    def test_rows_aligned(self):
        text = render_heatmap(np.ones((3, 4)), ["a", "bb", "ccc"], list("wxyz"))
        data_lines = text.splitlines()[1:-1]
        assert len({len(line) for line in data_lines[1:]}) == 1


class TestRenderSpeedupGrid:
    def test_pivot(self):
        rows = [
            {"d": 0.1, "m": 8, "s": 2.0},
            {"d": 0.1, "m": 64, "s": 1.0},
            {"d": 0.5, "m": 8, "s": 4.0},
            {"d": 0.5, "m": 64, "s": 3.0},
        ]
        text = render_speedup_grid(rows, "d", "m", "s", title="grid")
        assert "grid" in text and "4.00" in text

    def test_incomplete_grid_rejected(self):
        rows = [
            {"d": 0.1, "m": 8, "s": 2.0},
            {"d": 0.5, "m": 64, "s": 3.0},
        ]
        with pytest.raises(ValueError, match="full row x column grid"):
            render_speedup_grid(rows, "d", "m", "s")

