"""Synthetic stand-ins for the paper's Table II SuiteSparse matrices.

Each generator is seeded and matched to the published size, nonzero count,
and structure class of its namesake:

=========  ============  =========  ==========================================
Matrix     Size          Non-zeros  Structure class we generate
=========  ============  =========  ==========================================
dwt_193    193 x 193     1843       narrow banded, symmetric (structural mesh)
Journals   128 x 128     6096       dense-ish random symmetric (co-citation)
Heart1     3600 x 3600   1387773    wide banded + random fill, symmetric
ash292     292 x 292     2208       narrow banded, symmetric (least squares)
bcsstk13   2003 x 2003   83883      banded, symmetric (stiffness matrix)
cegb2802   2802 x 2802   277362     banded, symmetric (finite elements)
comsol     1500 x 1500   97645      banded + random fill, symmetric
=========  ============  =========  ==========================================

Nonzero counts land within a few percent of the targets (generation is
stochastic); the induced SpMM communication topology — which is all the
collective sees — has the same block structure and density as the original.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from repro.utils.rng import RandomState, resolve_rng
from repro.utils.validation import check_positive

if TYPE_CHECKING:
    import scipy.sparse as sp


@dataclass(frozen=True)
class MatrixSpec:
    """Published shape of one Table II matrix plus our structure class."""

    name: str
    n: int
    nnz: int
    structure: str          #: "banded" or "random"
    band_fraction: float    #: bandwidth as a fraction of n (banded only)

    @property
    def density(self) -> float:
        return self.nnz / (self.n * self.n)


#: The paper's Table II, in its row order.
TABLE_II: tuple[MatrixSpec, ...] = (
    MatrixSpec("dwt_193", 193, 1843, "banded", 0.12),
    MatrixSpec("Journals", 128, 6096, "random", 0.0),
    MatrixSpec("Heart1", 3600, 1387773, "banded", 0.30),
    MatrixSpec("ash292", 292, 2208, "banded", 0.10),
    MatrixSpec("bcsstk13", 2003, 83883, "banded", 0.08),
    MatrixSpec("cegb2802", 2802, 277362, "banded", 0.10),
    MatrixSpec("comsol", 1500, 97645, "banded", 0.15),
)

_SPECS = {spec.name: spec for spec in TABLE_II}


def matrix_names() -> tuple[str, ...]:
    return tuple(spec.name for spec in TABLE_II)


def synthetic_matrix(name: str, seed: RandomState = 0) -> sp.csr_matrix:
    """Generate the synthetic stand-in for a Table II matrix by name."""
    try:
        spec = _SPECS[name]
    except KeyError:
        raise KeyError(f"unknown matrix {name!r}; known: {matrix_names()}") from None
    rng = resolve_rng(seed)
    if spec.structure == "random":
        mat = _random_symmetric(spec.n, spec.nnz, rng)
    else:
        mat = _banded_symmetric(spec.n, spec.nnz, max(2, int(spec.band_fraction * spec.n)), rng)
    return mat


def _random_symmetric(n: int, nnz_target: int, rng: np.random.Generator) -> sp.csr_matrix:
    """Uniformly random symmetric pattern with ~nnz_target nonzeros."""
    check_positive("n", n)
    check_positive("nnz_target", nnz_target)
    # Sample slightly more than half (symmetrization doubles off-diagonals).
    k = int(nnz_target * 0.55)
    rows = rng.integers(0, n, size=2 * k)
    cols = rng.integers(0, n, size=2 * k)
    return _assemble_symmetric(n, nnz_target, rows, cols, rng)


def _banded_symmetric(
    n: int, nnz_target: int, bandwidth: int, rng: np.random.Generator
) -> sp.csr_matrix:
    """Banded symmetric pattern: offsets within [-bandwidth, bandwidth]."""
    check_positive("bandwidth", bandwidth)
    k = int(nnz_target * 0.7)
    rows = rng.integers(0, n, size=2 * k)
    offsets = rng.integers(-bandwidth, bandwidth + 1, size=2 * k)
    cols = rows + offsets
    keep = (cols >= 0) & (cols < n)
    return _assemble_symmetric(n, nnz_target, rows[keep], cols[keep], rng)


def _assemble_symmetric(
    n: int, nnz_target: int, rows: np.ndarray, cols: np.ndarray, rng: np.random.Generator
) -> sp.csr_matrix:
    """Symmetrize, add the diagonal, and trim toward the nnz target."""
    import scipy.sparse as sp

    # Unique (row, col) pairs plus transposes plus the full diagonal
    # (FEM/stiffness matrices have nonzero diagonals).
    diag = np.arange(n)
    r = np.concatenate([rows, cols, diag])
    c = np.concatenate([cols, rows, diag])
    keys = np.unique(r * n + c)
    if keys.size > nnz_target:
        # Drop random off-diagonal entries symmetrically to approach target.
        rr, cc = keys // n, keys % n
        off_upper = np.flatnonzero(rr < cc)
        excess = (keys.size - nnz_target) // 2
        if excess > 0 and off_upper.size:
            drop = rng.choice(off_upper, size=min(excess, off_upper.size), replace=False)
            dropped = set(keys[drop].tolist())
            dropped |= {int(cc[i] * n + rr[i]) for i in drop}
            keys = np.array([k for k in keys.tolist() if k not in dropped])
    rr, cc = keys // n, keys % n
    data = rng.random(keys.size) + 0.1
    mat = sp.csr_matrix((data, (rr, cc)), shape=(n, n))
    # Symmetrize values too (pattern already symmetric).
    return ((mat + mat.T) * 0.5).tocsr()
