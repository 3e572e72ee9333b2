"""Erdős–Rényi random sparse graph topologies (paper Section VII-A).

Each directed edge ``u -> v`` (``u != v``) exists independently with
probability ``density`` — the paper's δ parameter, "the same parameter δ in
the Erdős–Rényi random graph generation model".  Generation is vectorized:
one Bernoulli matrix per graph, so 2000-rank graphs build in milliseconds.
"""

from __future__ import annotations

import numpy as np

from repro.topology.graph import DistGraphTopology
from repro.utils.rng import RandomState, resolve_rng
from repro.utils.validation import check_positive, check_probability


def erdos_renyi_topology(
    n: int,
    density: float,
    seed: RandomState = None,
    allow_self_loops: bool = False,
) -> DistGraphTopology:
    """Random directed graph over ``n`` ranks with edge probability ``density``.

    Parameters
    ----------
    n:
        Number of ranks.
    density:
        δ ∈ [0, 1]; expected outdegree is ``density * (n - 1)``
        (``density * n`` with self-loops).
    seed:
        RNG seed / generator for reproducibility.
    allow_self_loops:
        MPI permits ``u -> u`` edges; the paper's benchmarks exclude them.
    """
    n = check_positive("n", n)
    density = check_probability("density", density)
    rng = resolve_rng(seed)

    if density == 0.0:
        return DistGraphTopology(n, [() for _ in range(n)])

    adjacency = rng.random((n, n)) < density
    if not allow_self_loops:
        np.fill_diagonal(adjacency, False)
    return DistGraphTopology.from_adjacency(adjacency)
