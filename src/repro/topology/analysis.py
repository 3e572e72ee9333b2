"""Topology diagnostics: the structural quantities that predict algorithm
benefit.

The paper's algorithms exploit two properties of a virtual topology:

* **shared outgoing neighborhoods** — the currency of both the Common
  Neighbor grouping and the Distance Halving agent scores (Matrix A row
  sums);
* **placement locality** — how many edges stay within a socket / node /
  group once ranks are placed on a machine, which bounds what halving can
  save.

:func:`analyze_topology` computes both (plus degree statistics), and
:func:`pattern_preview` builds the actual Distance Halving pattern to report
its levels, agent success rate, and data messages per call next to the
naive per-edge count.  The CLI exposes this as ``python -m repro analyze``.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field

import numpy as np

from repro.cluster.machine import Machine
from repro.cluster.spec import LinkClass
from repro.topology.graph import DistGraphTopology


@dataclass(frozen=True)
class DegreeStats:
    """Summary of a degree distribution."""

    mean: float
    std: float
    minimum: int
    maximum: int

    @classmethod
    def of(cls, degrees: list[int]) -> "DegreeStats":
        arr = np.asarray(degrees, dtype=float)
        if arr.size == 0:
            return cls(0.0, 0.0, 0, 0)
        return cls(float(arr.mean()), float(arr.std()), int(arr.min()), int(arr.max()))


@dataclass
class TopologyReport:
    """Structural summary of one topology (optionally placed on a machine)."""

    n: int
    n_edges: int
    density: float
    out_degrees: DegreeStats
    in_degrees: DegreeStats
    self_loops: int
    symmetric: bool
    #: mean |O_u ∩ O_v| over ordered rank pairs u != v (the Matrix A currency)
    mean_shared_out_neighbors: float
    #: fraction of rank pairs sharing at least one outgoing neighbor
    candidate_pair_fraction: float
    #: edge fraction per link class; empty when no machine was given
    edge_locality: dict[str, float] = field(default_factory=dict)

    def summary_lines(self) -> list[str]:
        lines = [
            f"ranks={self.n}  edges={self.n_edges}  density={self.density:.4f}  "
            f"self-loops={self.self_loops}  symmetric={self.symmetric}",
            f"outdegree: mean={self.out_degrees.mean:.1f} std={self.out_degrees.std:.1f} "
            f"range=[{self.out_degrees.minimum}, {self.out_degrees.maximum}]",
            f"shared out-neighbors: mean={self.mean_shared_out_neighbors:.2f} per pair, "
            f"{self.candidate_pair_fraction:.0%} of pairs are agent candidates",
        ]
        if self.edge_locality:
            parts = ", ".join(f"{k}={v:.0%}" for k, v in self.edge_locality.items() if v)
            lines.append(f"edge locality: {parts}")
        return lines


def analyze_topology(
    topology: DistGraphTopology, machine: Machine | None = None
) -> TopologyReport:
    """Compute a :class:`TopologyReport` (O(n^2 * degree) worst case)."""
    n = topology.n
    out_deg = [topology.outdegree(r) for r in range(n)]
    in_deg = [topology.indegree(r) for r in range(n)]
    self_loops = sum(1 for u in range(n) if u in topology.out_neighbors(u))
    symmetric = all(
        topology.out_neighbors(u) == topology.in_neighbors(u) for u in range(n)
    )

    # Shared-out-neighbor statistics via one boolean matmul.
    from repro.collectives.distance_halving.matrix_a import adjacency_matrix

    adj = adjacency_matrix(topology).astype(np.float32)
    shared = adj @ adj.T
    np.fill_diagonal(shared, 0.0)
    pairs = n * (n - 1)
    mean_shared = float(shared.sum() / pairs) if pairs else 0.0
    candidate_fraction = float((shared > 0).sum() / pairs) if pairs else 0.0

    locality: dict[str, float] = {}
    if machine is not None:
        if n > machine.spec.n_ranks:
            raise ValueError(
                f"topology has {n} ranks, machine only {machine.spec.n_ranks}"
            )
        counts: Counter[LinkClass] = Counter()
        for u, v in topology.edges():
            counts[machine.link_class(u, v)] += 1
        total = max(1, topology.n_edges)
        locality = {cls.name: counts.get(cls, 0) / total for cls in LinkClass}

    return TopologyReport(
        n=n,
        n_edges=topology.n_edges,
        density=topology.density,
        out_degrees=DegreeStats.of(out_deg),
        in_degrees=DegreeStats.of(in_deg),
        self_loops=self_loops,
        symmetric=symmetric,
        mean_shared_out_neighbors=mean_shared,
        candidate_pair_fraction=candidate_fraction,
        edge_locality=locality,
    )


def pattern_preview(topology: DistGraphTopology, machine: Machine) -> dict:
    """Build the DH pattern, check it, and summarize what the collective
    would do.

    Returns a dict with halving levels, agent success rate, data messages
    per call (vs the naive per-edge count), and the peak buffer growth.
    Raises :class:`AssertionError` (from :func:`check_pattern`) when the
    pattern does not deliver every edge exactly once.
    """
    from repro.collectives.distance_halving.builder import build_patterns, check_pattern

    pattern = build_patterns(topology, machine)
    check_pattern(topology, pattern)
    peak_blocks = max((rp.max_buffer_blocks() for rp in pattern.ranks), default=1)
    return {
        "levels": pattern.stats.levels,
        "agent_success_rate": pattern.stats.success_rate,
        "dh_messages_per_call": pattern.total_data_messages(),
        "naive_messages_per_call": topology.n_edges,
        "message_reduction": (
            topology.n_edges / pattern.total_data_messages()
            if pattern.total_data_messages()
            else float("inf")
        ),
        "peak_buffer_blocks": peak_blocks,
    }
