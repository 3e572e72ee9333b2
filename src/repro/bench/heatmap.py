"""Terminal heatmaps: render speedup grids the way the paper's figures do.

No plotting dependencies are available offline, so figures render as
character-shaded grids.  :func:`render_speedup_grid` centers the palette at
1.0x (parity): ``-`` shades mark slowdowns, ``+``-family shades speedups,
with the numeric value printed in each cell.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

#: Shades from strong slowdown to strong speedup (log scale around 1.0x).
_SHADES = " .:-=+*#%@"


def shade_for_speedup(value: float, max_abs_log: float = 3.5) -> str:
    """Map a speedup ratio to a shade character (log2-scaled, 1.0 centered)."""
    if value <= 0 or not np.isfinite(value):
        return "?"
    level = np.log2(value)  # 0 at parity
    normalized = (np.clip(level, -max_abs_log, max_abs_log) + max_abs_log) / (
        2 * max_abs_log
    )
    index = int(round(normalized * (len(_SHADES) - 1)))
    return _SHADES[index]


def render_heatmap(
    values: np.ndarray | Sequence[Sequence[float]],
    row_labels: Sequence[str],
    col_labels: Sequence[str],
    title: str | None = None,
    cell_format: str = "{:6.2f}",
) -> str:
    """Shaded grid with numeric cells; rows x columns follow ``values``."""
    values = np.asarray(values, dtype=float)
    if values.shape != (len(row_labels), len(col_labels)):
        raise ValueError(
            f"values shape {values.shape} does not match labels "
            f"({len(row_labels)}, {len(col_labels)})"
        )
    row_width = max((len(r) for r in row_labels), default=0)
    cell_width = max(
        max((len(c) for c in col_labels), default=0),
        len(cell_format.format(1.0)) + 2,
    )
    lines = []
    if title:
        lines.append(title)
    header = " " * row_width + " " + "".join(c.rjust(cell_width) for c in col_labels)
    lines.append(header)
    for label, row in zip(row_labels, values):
        cells = []
        for value in row:
            shade = shade_for_speedup(float(value))
            cells.append(f"{shade}{cell_format.format(value)}{shade}".rjust(cell_width))
        lines.append(label.rjust(row_width) + " " + "".join(cells))
    lines.append(
        f"shades: '{_SHADES[0]}' << 1x  ...  '{shade_for_speedup(1.0)}' ~ 1x  ...  "
        f"'{_SHADES[-1]}' >> 1x"
    )
    return "\n".join(lines)


def render_speedup_grid(
    rows: Sequence[dict],
    row_key: str,
    col_key: str,
    value_key: str,
    title: str | None = None,
    col_label=str,
    row_label=str,
) -> str:
    """Pivot flat records (like the figure drivers emit) into a heatmap."""
    row_vals = sorted({r[row_key] for r in rows})
    col_vals = sorted({r[col_key] for r in rows})
    grid = np.full((len(row_vals), len(col_vals)), np.nan)
    for rec in rows:
        i = row_vals.index(rec[row_key])
        j = col_vals.index(rec[col_key])
        grid[i, j] = rec[value_key]
    if np.isnan(grid).any():
        raise ValueError("records do not cover the full row x column grid")
    return render_heatmap(
        grid,
        [row_label(v) for v in row_vals],
        [col_label(v) for v in col_vals],
        title=title,
    )

