"""The distributed-graph virtual topology.

Follows ``MPI_Dist_graph_create_adjacent``: the topology is a directed graph
over ranks; an edge ``u -> v`` means *u sends to v* in a neighborhood
collective (v is an *outgoing neighbor* of u; u is an *incoming neighbor* of
v).  Neighbor lists are stored sorted and deduplicated; order of a rank's
incoming list defines its receive-buffer layout, exactly as MPI defines the
``recvbuf`` block order of ``MPI_Neighbor_allgather``.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Mapping, Sequence

import numpy as np

from repro.utils.validation import check_positive


class DistGraphTopology:
    """Immutable directed communication graph over ``n`` ranks."""

    __slots__ = ("_n", "_out", "_in", "_n_edges")

    def __init__(self, n: int, out_neighbors: Mapping[int, Iterable[int]] | Sequence[Iterable[int]]):
        """Build from per-rank outgoing neighbor lists.

        Parameters
        ----------
        n:
            Number of ranks.
        out_neighbors:
            ``out_neighbors[u]`` iterates u's outgoing neighbors.  Missing
            ranks (for mappings) have no outgoing edges.  Duplicates are
            dropped; self-loops are allowed (MPI permits them) and handled
            by the collectives as local copies.
        """
        self._n = check_positive("n", n)
        out: list[tuple[int, ...]] = []
        incoming: list[list[int]] = [[] for _ in range(n)]
        n_edges = 0
        for u in range(n):
            if isinstance(out_neighbors, Mapping):
                raw = out_neighbors.get(u, ())
            else:
                raw = out_neighbors[u] if u < len(out_neighbors) else ()
            nbrs = sorted(set(map(int, raw)))
            if nbrs and (nbrs[0] < 0 or nbrs[-1] >= n):
                bad = [v for v in nbrs if not 0 <= v < n]
                raise ValueError(f"rank {u} has out-of-range neighbors {bad} (n={n})")
            out.append(tuple(nbrs))
            n_edges += len(nbrs)
            for v in nbrs:
                incoming[v].append(u)
        self._out = tuple(out)
        # The ascending u loop appends each in-list sorted and duplicate-free.
        self._in = tuple(map(tuple, incoming))
        self._n_edges = n_edges

    # ----------------------------------------------------------------- basics
    @property
    def n(self) -> int:
        """Number of ranks."""
        return self._n

    @property
    def n_edges(self) -> int:
        """Total directed edges (= total messages of the naive algorithm)."""
        return self._n_edges

    def out_neighbors(self, rank: int) -> tuple[int, ...]:
        """Sorted outgoing neighbors of ``rank`` (set ``O`` in the paper)."""
        return self._out[rank]

    def in_neighbors(self, rank: int) -> tuple[int, ...]:
        """Sorted incoming neighbors of ``rank`` (set ``I`` in the paper)."""
        return self._in[rank]

    def outdegree(self, rank: int) -> int:
        return len(self._out[rank])

    def indegree(self, rank: int) -> int:
        return len(self._in[rank])

    def has_edge(self, u: int, v: int) -> bool:
        out = self._out[u]
        import bisect
        i = bisect.bisect_left(out, v)
        return i < len(out) and out[i] == v

    def edges(self) -> Iterator[tuple[int, int]]:
        """Iterate all directed edges ``(u, v)``."""
        for u, nbrs in enumerate(self._out):
            for v in nbrs:
                yield (u, v)

    @property
    def density(self) -> float:
        """Edge density relative to a complete digraph with self-loops.

        Matches the paper's Erdős–Rényi parameter: average outdegree
        equals ``density * n``.
        """
        return self._n_edges / (self._n * self._n)

    @property
    def average_outdegree(self) -> float:
        return self._n_edges / self._n

    @property
    def max_outdegree(self) -> int:
        return max((len(nbrs) for nbrs in self._out), default=0)

    @property
    def max_indegree(self) -> int:
        return max((len(nbrs) for nbrs in self._in), default=0)

    def has_self_loops(self) -> bool:
        return any(u in nbrs for u, nbrs in enumerate(self._out))

    # ------------------------------------------------------------ conversions
    @classmethod
    def from_edges(cls, n: int, edges: Iterable[tuple[int, int]]) -> "DistGraphTopology":
        out: dict[int, list[int]] = {}
        for u, v in edges:
            out.setdefault(u, []).append(v)
        return cls(n, out)

    @classmethod
    def from_adjacency(cls, matrix: np.ndarray) -> "DistGraphTopology":
        """Build from a square adjacency matrix: ``matrix[u, v]`` nonzero is
        the edge ``u -> v``.

        Rows give the out-lists and columns the in-lists, each already
        sorted and duplicate-free, so none of :meth:`__init__`'s per-edge
        work is needed.
        """
        matrix = np.asarray(matrix)
        if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1]:
            raise ValueError(f"adjacency matrix must be square, got shape {matrix.shape}")
        topology = cls.__new__(cls)
        topology._n = check_positive("n", matrix.shape[0])
        nonzero = np.flatnonzero
        topology._out = tuple(tuple(nonzero(row).tolist()) for row in matrix)
        columns = np.ascontiguousarray(matrix.T)
        topology._in = tuple(tuple(nonzero(col).tolist()) for col in columns)
        topology._n_edges = int(np.count_nonzero(matrix))
        return topology

    def reversed(self) -> "DistGraphTopology":
        """Topology with every edge direction flipped."""
        return DistGraphTopology(self._n, {v: list(self._in[v]) for v in range(self._n)})

    def to_networkx(self):
        """Export to a :class:`networkx.DiGraph` (for analysis/plotting)."""
        import networkx as nx

        g = nx.DiGraph()
        g.add_nodes_from(range(self._n))
        g.add_edges_from(self.edges())
        return g

    @classmethod
    def from_networkx(cls, graph) -> "DistGraphTopology":
        n = graph.number_of_nodes()
        return cls.from_edges(n, graph.edges())

    # ------------------------------------------------------------------ misc
    def __eq__(self, other: object) -> bool:
        if not isinstance(other, DistGraphTopology):
            return NotImplemented
        return self._n == other._n and self._out == other._out

    def __hash__(self) -> int:
        return hash((self._n, self._out))

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"DistGraphTopology(n={self._n}, edges={self._n_edges}, "
            f"density={self.density:.4f})"
        )
