"""Topology induced by a sparse matrix's structure (paper Section VII-C).

For the SpMM kernel ``Z = X @ Y`` with ``X`` block-striped row-wise over the
ranks, rank ``i`` needs the rows of ``Y`` indexed by the nonzero *columns*
of its stripe of ``X``.  The owner of each such row becomes an incoming
neighbor of ``i`` (edge ``owner -> i``), and ``MPI_Neighbor_allgather`` over
this topology delivers exactly the needed blocks.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from repro.topology.graph import DistGraphTopology
from repro.utils.validation import check_positive

if TYPE_CHECKING:
    import scipy.sparse as sp


@dataclass(frozen=True)
class BlockRowPartition:
    """Contiguous block-row partition of ``n_rows`` over ``n_ranks``.

    Rows split as evenly as possible; the first ``n_rows % n_ranks`` ranks
    get one extra row.
    """

    n_rows: int
    n_ranks: int

    def __post_init__(self) -> None:
        check_positive("n_rows", self.n_rows)
        check_positive("n_ranks", self.n_ranks)
        if self.n_ranks > self.n_rows:
            raise ValueError(
                f"n_ranks={self.n_ranks} exceeds n_rows={self.n_rows}; "
                "every rank must own at least one row"
            )

    def bounds(self, rank: int) -> tuple[int, int]:
        """Half-open row range ``[lo, hi)`` owned by ``rank``."""
        if not 0 <= rank < self.n_ranks:
            raise ValueError(f"rank {rank} out of range [0, {self.n_ranks})")
        base, extra = divmod(self.n_rows, self.n_ranks)
        lo = rank * base + min(rank, extra)
        hi = lo + base + (1 if rank < extra else 0)
        return lo, hi

    def owner(self, row: int) -> int:
        """Rank owning ``row``."""
        if not 0 <= row < self.n_rows:
            raise ValueError(f"row {row} out of range [0, {self.n_rows})")
        base, extra = divmod(self.n_rows, self.n_ranks)
        threshold = extra * (base + 1)
        if row < threshold:
            return row // (base + 1)
        return extra + (row - threshold) // base

    def owners(self, rows: np.ndarray) -> np.ndarray:
        """Vectorized :meth:`owner`."""
        rows = np.asarray(rows)
        base, extra = divmod(self.n_rows, self.n_ranks)
        threshold = extra * (base + 1)
        low = rows // (base + 1)
        high = extra + (rows - threshold) // max(base, 1)
        return np.where(rows < threshold, low, high).astype(np.int64)

    def size_of(self, rank: int) -> int:
        lo, hi = self.bounds(rank)
        return hi - lo


def topology_from_sparse(
    matrix: sp.spmatrix | sp.sparray,
    n_ranks: int,
) -> tuple[DistGraphTopology, BlockRowPartition]:
    """Neighborhood topology for block-row SpMM over ``matrix``.

    Returns ``(topology, partition)`` where ``topology`` has an edge
    ``u -> v`` whenever rank ``v``'s stripe of the matrix has a nonzero in a
    column owned by rank ``u`` (``u != v``); i.e., ``u`` must send its
    ``Y``-block to ``v``.
    """
    import scipy.sparse as sp

    matrix = sp.csr_matrix(matrix)
    n_rows, n_cols = matrix.shape
    if n_rows != n_cols:
        raise ValueError(f"matrix must be square for SpMM topology, got {matrix.shape}")
    partition = BlockRowPartition(n_rows, check_positive("n_ranks", n_ranks))

    out_lists: dict[int, set[int]] = {u: set() for u in range(n_ranks)}
    for v in range(n_ranks):
        lo, hi = partition.bounds(v)
        stripe = matrix[lo:hi]
        needed_cols = np.unique(stripe.indices)
        for u in np.unique(partition.owners(needed_cols)):
            if int(u) != v:
                out_lists[int(u)].add(v)
    return DistGraphTopology(n_ranks, {u: sorted(s) for u, s in out_lists.items()}), partition
