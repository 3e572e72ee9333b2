"""Unit + property tests for DistGraphTopology."""

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from repro.topology.graph import DistGraphTopology


class TestConstruction:
    def test_from_lists(self):
        topo = DistGraphTopology(3, [[1, 2], [2], []])
        assert topo.out_neighbors(0) == (1, 2)
        assert topo.in_neighbors(2) == (0, 1)
        assert topo.n_edges == 3

    def test_from_mapping_missing_ranks(self):
        topo = DistGraphTopology(4, {0: [3]})
        assert topo.out_neighbors(1) == ()
        assert topo.in_neighbors(3) == (0,)

    def test_deduplicates_and_sorts(self):
        topo = DistGraphTopology(4, [[3, 1, 3, 1], [], [], []])
        assert topo.out_neighbors(0) == (1, 3)
        assert topo.n_edges == 2

    def test_self_loops_allowed(self):
        topo = DistGraphTopology(2, [[0, 1], []])
        assert topo.has_self_loops()
        assert 0 in topo.in_neighbors(0)

    def test_out_of_range_neighbor_rejected(self):
        with pytest.raises(ValueError, match="out-of-range"):
            DistGraphTopology(3, [[5], [], []])
        with pytest.raises(ValueError, match="out-of-range"):
            DistGraphTopology(3, [[-1], [], []])

    def test_from_edges(self):
        topo = DistGraphTopology.from_edges(4, [(0, 1), (1, 2), (0, 2)])
        assert topo.n_edges == 3
        assert topo.has_edge(0, 1)
        assert not topo.has_edge(1, 0)

    def test_from_adjacency(self):
        matrix = np.array([[0, 1, 1], [0, 1, 0], [0, 0, 0]], dtype=bool)
        topo = DistGraphTopology.from_adjacency(matrix)
        assert topo == DistGraphTopology(3, [[1, 2], [1], []])
        assert topo.in_neighbors(1) == (0, 1)
        assert topo.n_edges == 3

    def test_from_adjacency_rejects_non_square(self):
        with pytest.raises(ValueError, match="square"):
            DistGraphTopology.from_adjacency(np.zeros((2, 3), dtype=bool))
        with pytest.raises(ValueError, match="square"):
            DistGraphTopology.from_adjacency(np.zeros(4, dtype=bool))


class TestQueries:
    def test_degrees(self):
        topo = DistGraphTopology(3, [[1, 2], [2], []])
        assert topo.outdegree(0) == 2
        assert topo.indegree(2) == 2
        assert topo.max_outdegree == 2
        assert topo.max_indegree == 2
        assert topo.average_outdegree == pytest.approx(1.0)

    def test_density(self):
        topo = DistGraphTopology(2, [[1], [0]])
        assert topo.density == pytest.approx(0.5)

    def test_edges_iterator(self):
        topo = DistGraphTopology(3, [[1], [2], [0]])
        assert sorted(topo.edges()) == [(0, 1), (1, 2), (2, 0)]

    def test_equality_and_hash(self):
        a = DistGraphTopology(3, [[1], [], []])
        b = DistGraphTopology(3, {0: [1]})
        c = DistGraphTopology(3, [[2], [], []])
        assert a == b and hash(a) == hash(b)
        assert a != c


class TestTransforms:
    def test_reversed(self):
        topo = DistGraphTopology(3, [[1, 2], [], []])
        rev = topo.reversed()
        assert rev.out_neighbors(1) == (0,)
        assert rev.in_neighbors(0) == (1, 2)
        assert rev.reversed() == topo

    def test_networkx_roundtrip(self):
        topo = DistGraphTopology(5, [[1, 4], [2], [3], [], [0]])
        back = DistGraphTopology.from_networkx(topo.to_networkx())
        assert back == topo


@given(
    st.integers(2, 20).flatmap(
        lambda n: st.tuples(
            st.just(n),
            st.lists(
                st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
                max_size=60,
            ),
        )
    )
)
def test_in_out_duality(args):
    """u in in_neighbors(v) iff v in out_neighbors(u), edge counts agree,
    and every in-neighbor tuple is strictly ascending."""
    n, edges = args
    topo = DistGraphTopology.from_edges(n, edges)
    for u in range(n):
        for v in topo.out_neighbors(u):
            assert u in topo.in_neighbors(v)
    for v in range(n):
        nbrs = topo.in_neighbors(v)
        assert all(a < b for a, b in zip(nbrs, nbrs[1:]))
    assert sum(topo.indegree(v) for v in range(n)) == topo.n_edges
    assert sum(topo.outdegree(u) for u in range(n)) == topo.n_edges


@given(
    st.integers(1, 12).flatmap(
        lambda n: st.lists(st.booleans(), min_size=n * n, max_size=n * n).map(
            lambda cells: np.array(cells, dtype=bool).reshape(n, n)
        )
    )
)
@example(np.zeros((3, 3), dtype=bool))
@example(np.eye(3, dtype=bool))
def test_from_adjacency_matches_out_lists(matrix):
    """Rows and columns give the graph __init__ builds from the row lists,
    self-loops and empty rows included, with plain int neighbor ids."""
    n = len(matrix)
    topo = DistGraphTopology.from_adjacency(matrix)
    reference = DistGraphTopology(n, [np.flatnonzero(row).tolist() for row in matrix])
    assert topo == reference
    assert topo.n_edges == reference.n_edges
    for r in range(n):
        assert topo.in_neighbors(r) == reference.in_neighbors(r)
        assert all(type(v) is int for v in topo.in_neighbors(r) + topo.out_neighbors(r))
