"""The neighborhood-allgather SpMM kernel.

``run_spmm`` distributes ``X`` (sparse, n x n) block-row-wise over the
machine's ranks, derives the neighborhood topology from its sparsity,
gathers the needed ``Y`` stripes with the selected allgather algorithm
(carrying the *actual* numpy blocks as payloads through the simulator), and
multiplies locally.  The result is numerically checked against ``X @ Y``,
so the collective's data movement is verified end-to-end, not just timed.

Time model: ``total = max over ranks of (allgather finish + local flops)``,
with local flops = ``2 * nnz(stripe) * Y.shape[1] / flop_rate``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from repro.cluster.machine import Machine
from repro.collectives.base import NeighborhoodAllgatherAlgorithm, get_algorithm
from repro.collectives.runner import run_allgather
from repro.topology.from_matrix import BlockRowPartition, topology_from_sparse
from repro.utils.validation import check_positive

if TYPE_CHECKING:
    import scipy.sparse as sp

#: Default sustained local compute rate (flops/s) for the time model.
DEFAULT_FLOP_RATE = 5.0e9


@dataclass
class SpMMResult:
    """Outcome of one distributed SpMM run."""

    algorithm: str
    n_ranks: int
    msg_size: int           #: allgather block size in bytes
    comm_time: float        #: simulated allgather makespan
    compute_time: float     #: max local multiply time (model)
    total_time: float       #: max over ranks of (comm finish + local compute)
    Z: np.ndarray           #: the assembled product (for verification)
    messages: int
    verified: bool


def run_spmm(
    matrix: sp.spmatrix | sp.sparray,
    y_cols: int,
    machine: Machine,
    algorithm: str | NeighborhoodAllgatherAlgorithm = "distance_halving",
    *,
    flop_rate: float = DEFAULT_FLOP_RATE,
    seed: int = 0,
    verify: bool = True,
    **algorithm_kwargs,
) -> SpMMResult:
    """Distributed ``Z = X @ Y`` with a dense random ``Y`` of ``y_cols`` columns."""
    check_positive("y_cols", y_cols)
    check_positive("flop_rate", flop_rate)
    import scipy.sparse as sp

    matrix = sp.csr_matrix(matrix)
    n = matrix.shape[0]
    n_ranks = min(machine.spec.n_ranks, n)

    topology, partition = topology_from_sparse(matrix, n_ranks)
    rng = np.random.default_rng(seed)
    Y = rng.random((n, y_cols))

    # Per-rank payload: its Y stripe; allgatherv semantics with exact
    # per-stripe byte counts (stripes differ by up to one row).
    block_sizes = [partition.size_of(r) * y_cols * Y.itemsize for r in range(n_ranks)]
    msg_size = max(block_sizes)
    payloads = [Y[slice(*partition.bounds(r))] for r in range(n_ranks)]

    if isinstance(algorithm, str):
        algorithm = get_algorithm(algorithm, **algorithm_kwargs)
    elif algorithm_kwargs:
        raise ValueError("algorithm_kwargs only apply when algorithm is a name")
    run = run_allgather(algorithm, topology, machine, block_sizes, payloads=payloads)

    # Local multiply per rank, using own stripe + received neighbor stripes.
    Z = np.zeros((n, y_cols))
    total_time = 0.0
    max_compute = 0.0
    for r in range(n_ranks):
        lo, hi = partition.bounds(r)
        stripe = matrix[lo:hi]
        y_local = np.zeros_like(Y)
        y_local[lo:hi] = payloads[r]
        for src, block in run.results[r].items():
            s_lo, s_hi = partition.bounds(src)
            y_local[s_lo:s_hi] = block
        Z[lo:hi] = stripe @ y_local
        compute = 2.0 * stripe.nnz * y_cols / flop_rate
        max_compute = max(max_compute, compute)
        finish = run.finish_times.get(r, 0.0)
        total_time = max(total_time, finish + compute)

    verified = True
    if verify:
        expected = matrix @ Y
        verified = bool(np.allclose(Z, expected))
        if not verified:
            raise AssertionError(
                f"SpMM result mismatch (algorithm={run.algorithm}); the collective "
                "delivered wrong or missing Y stripes"
            )

    return SpMMResult(
        algorithm=run.algorithm,
        n_ranks=n_ranks,
        msg_size=msg_size,
        comm_time=run.simulated_time,
        compute_time=max_compute,
        total_time=total_time,
        Z=Z,
        messages=run.messages_sent,
        verified=verified,
    )
