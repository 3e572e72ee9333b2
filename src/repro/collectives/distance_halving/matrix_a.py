"""Candidates and Matrix A (paper Fig. 3).

For a rank ``p``, the *candidates* ``C`` are the ranks sharing at least one
outgoing neighbor with ``p``; ``A[i][j] = 1`` says candidate ``C[i]`` also
has ``O[j]`` (p's j-th outgoing neighbor) as an outgoing neighbor.  Agent
scores are row sums of ``A`` restricted to the columns that fall in the
current opposite half.

The builder never materializes per-rank A matrices (at 2000+ ranks that is
quadratic memory per rank); each matching round computes its block score
matrix directly from the adjacency matrix with one :func:`half_scores`
matmul — numerically identical, and vectorized.  :func:`build_matrix_a`
exists for API fidelity, tests, and documentation examples.
"""

from __future__ import annotations

from itertools import chain

import numpy as np

from repro.topology.graph import DistGraphTopology


def adjacency_matrix(topology: DistGraphTopology) -> np.ndarray:
    """Boolean ``adj[u, v] = (v in O_u)`` for the whole topology."""
    n = topology.n
    out = [topology.out_neighbors(u) for u in range(n)]
    src = np.repeat(np.arange(n), [len(nbrs) for nbrs in out])
    dst = np.fromiter(chain.from_iterable(out), dtype=np.intp, count=topology.n_edges)
    adj = np.zeros((n, n), dtype=bool)
    adj[src, dst] = True
    return adj


def build_matrix_a(
    topology: DistGraphTopology, rank: int, adj: np.ndarray | None = None
) -> tuple[list[int], np.ndarray]:
    """(candidates ``C``, matrix ``A``) for ``rank``, as in the paper's Fig. 3.

    ``A`` has shape ``(len(C), outdegree)``; ``A[i, j]`` is True when
    ``O[j]`` is an outgoing neighbor of ``C[i]``.  Candidates exclude the
    rank itself and are sorted ascending.
    """
    if adj is None:
        adj = adjacency_matrix(topology)
    out = list(topology.out_neighbors(rank))
    if not out:
        return [], np.zeros((0, 0), dtype=bool)
    shares = adj[:, out]  # shares[c, j]: O[j] is an outgoing neighbor of c
    counts = shares.sum(axis=1)
    counts[rank] = 0
    candidates = np.flatnonzero(counts > 0)
    return candidates.tolist(), shares[candidates]


def half_scores(
    adj_f32: np.ndarray,
    side_a: range,
    side_b: range,
    half: range,
) -> np.ndarray:
    """Shared-outgoing-neighbor counts restricted to ``half``.

    Returns an ``(len(side_a), len(side_b))`` float32 matrix whose entry
    ``[i, j]`` is ``|O_a ∩ O_b ∩ half|`` for ``a = side_a[i]``,
    ``b = side_b[j]``.  ``adj_f32`` is the adjacency matrix as float32
    (bool adjacency cast once by the caller; matmul on float32 avoids the
    uint8 overflow that degrees > 255 would cause).
    """
    lo, hi = half.start, half.stop
    block_a = adj_f32[side_a.start : side_a.stop, lo:hi]
    block_b = adj_f32[side_b.start : side_b.stop, lo:hi]
    return block_a @ block_b.T
