"""Network topologies: node-pair classification, hop counts, shared bottlenecks.

A :class:`NetworkTopology` refines the cluster's cross-node link picture:

* :meth:`~NetworkTopology.classify` says whether a node pair talks over a
  short path (``INTER_NODE``) or across a structural bottleneck
  (``INTER_GROUP`` — a Dragonfly+ global link, a fat-tree core uplink).
* :meth:`~NetworkTopology.hops` counts switch hops, which add latency.
* :meth:`~NetworkTopology.link_choices` names the *shared resources* a
  message may occupy, so the simulator can serialize concurrent traffic on
  them.  This is where the congestion that motivates the paper (Section IV)
  comes from: reducing traffic to distant nodes reduces waiting on exactly
  these resources.
"""

from __future__ import annotations

import abc
import math
from typing import Hashable, Sequence

from repro.cluster.spec import LinkClass
from repro.utils.validation import check_positive


class NetworkTopology(abc.ABC):
    """Classifies node pairs.

    :meth:`classify` and :meth:`hops` must be symmetric in (a, b);
    :meth:`link_choices` lists a path's lane groups from ``node_a``'s end
    to ``node_b``'s (a fat tree's source uplinks, then its destination's).
    """

    @abc.abstractmethod
    def classify(self, node_a: int, node_b: int) -> LinkClass:
        """``INTER_NODE`` or ``INTER_GROUP`` for distinct nodes."""

    @abc.abstractmethod
    def hops(self, node_a: int, node_b: int) -> int:
        """Switch hops between distinct nodes (0 for the same node)."""

    @abc.abstractmethod
    def link_choices(self, node_a: int, node_b: int) -> tuple[tuple[Hashable, ...], ...]:
        """Shared bottleneck lanes this node pair's traffic crosses.

        Returns one *choice group* per bottleneck the path crosses (empty
        when it crosses none); each group lists interchangeable resource
        keys, and the simulator's adaptive (UGAL-like) router claims the
        least-loaded key of each group.
        """

    def describe(self) -> str:  # pragma: no cover - cosmetic
        return type(self).__name__


class PermutedNodes(NetworkTopology):
    """A network seen through a node-placement permutation.

    Batch schedulers hand a job different physical nodes every run; the
    paper's Fig. 6 discussion attributes the default algorithm's latency
    variance to exactly this.  ``perm[i]`` is the physical node hosting
    logical node ``i``; all queries are forwarded through the mapping.
    """

    def __init__(self, base: NetworkTopology, perm: Sequence[int]) -> None:
        perm = tuple(int(p) for p in perm)
        if sorted(perm) != list(range(len(perm))):
            raise ValueError("perm must be a permutation of 0..len(perm)-1")
        self.base = base
        self.perm = perm

    def _map(self, node: int) -> int:
        if not 0 <= node < len(self.perm):
            raise ValueError(f"node {node} outside permutation of size {len(self.perm)}")
        return self.perm[node]

    def classify(self, node_a: int, node_b: int) -> LinkClass:
        return self.base.classify(self._map(node_a), self._map(node_b))

    def hops(self, node_a: int, node_b: int) -> int:
        return self.base.hops(self._map(node_a), self._map(node_b))

    def link_choices(self, node_a: int, node_b: int) -> tuple[tuple[Hashable, ...], ...]:
        return self.base.link_choices(self._map(node_a), self._map(node_b))

    def describe(self) -> str:  # pragma: no cover - cosmetic
        return f"Permuted({self.base.describe()})"


class SingleSwitch(NetworkTopology):
    """All nodes behind one full-bisection switch — the no-bottleneck baseline."""

    def classify(self, node_a: int, node_b: int) -> LinkClass:
        return LinkClass.SELF if node_a == node_b else LinkClass.INTER_NODE

    def hops(self, node_a: int, node_b: int) -> int:
        return 0 if node_a == node_b else 2

    def link_choices(self, node_a: int, node_b: int) -> tuple[tuple[Hashable, ...], ...]:
        return ()


class DragonflyPlus(NetworkTopology):
    """Dragonfly+ as on the paper's testbed: groups joined by global links.

    Nodes are grouped into ``nodes_per_group``-sized groups (a leaf/spine
    sub-fabric each).  Traffic within a group is cheap (``INTER_NODE``);
    traffic between groups crosses one of ``links_per_pair`` global links
    for that group pair (``INTER_GROUP``), which the simulator serializes.
    """

    def __init__(self, nodes_per_group: int, links_per_pair: int = 2) -> None:
        self.nodes_per_group = check_positive("nodes_per_group", nodes_per_group)
        self.links_per_pair = check_positive("links_per_pair", links_per_pair)

    def group_of(self, node: int) -> int:
        return node // self.nodes_per_group

    def classify(self, node_a: int, node_b: int) -> LinkClass:
        if node_a == node_b:
            return LinkClass.SELF
        if self.group_of(node_a) == self.group_of(node_b):
            return LinkClass.INTER_NODE
        return LinkClass.INTER_GROUP

    def hops(self, node_a: int, node_b: int) -> int:
        if node_a == node_b:
            return 0
        return 2 if self.group_of(node_a) == self.group_of(node_b) else 5

    def link_choices(self, node_a: int, node_b: int) -> tuple[tuple[Hashable, ...], ...]:
        """Adaptive routing may use any of the group pair's global links."""
        ga, gb = self.group_of(node_a), self.group_of(node_b)
        if ga == gb:
            return ()
        lo, hi = min(ga, gb), max(ga, gb)
        return (tuple(("global", lo, hi, lane) for lane in range(self.links_per_pair)),)

    def describe(self) -> str:  # pragma: no cover - cosmetic
        return f"DragonflyPlus(nodes_per_group={self.nodes_per_group})"


class FatTree(NetworkTopology):
    """Two-level fat tree: leaf switches with (possibly tapered) core uplinks.

    ``taper`` < 1 models the reduced bisection-to-injection bandwidth ratio
    the paper calls out for fat trees: each leaf has
    ``max(1, int(nodes_per_leaf * taper))`` uplink lanes.
    """

    def __init__(self, nodes_per_leaf: int, taper: float = 0.5) -> None:
        self.nodes_per_leaf = check_positive("nodes_per_leaf", nodes_per_leaf)
        if not 0 < taper <= 1:
            raise ValueError(f"taper must be in (0, 1], got {taper}")
        self.taper = float(taper)
        self.uplinks_per_leaf = max(1, int(nodes_per_leaf * taper))

    def leaf_of(self, node: int) -> int:
        return node // self.nodes_per_leaf

    def classify(self, node_a: int, node_b: int) -> LinkClass:
        if node_a == node_b:
            return LinkClass.SELF
        if self.leaf_of(node_a) == self.leaf_of(node_b):
            return LinkClass.INTER_NODE
        return LinkClass.INTER_GROUP

    def hops(self, node_a: int, node_b: int) -> int:
        if node_a == node_b:
            return 0
        return 2 if self.leaf_of(node_a) == self.leaf_of(node_b) else 4

    def link_choices(self, node_a: int, node_b: int) -> tuple[tuple[Hashable, ...], ...]:
        """Adaptive routing picks a lane at each leaf independently."""
        la, lb = self.leaf_of(node_a), self.leaf_of(node_b)
        if la == lb:
            return ()
        return (
            tuple(("up", la, lane) for lane in range(self.uplinks_per_leaf)),
            tuple(("up", lb, lane) for lane in range(self.uplinks_per_leaf)),
        )

    def describe(self) -> str:  # pragma: no cover - cosmetic
        return f"FatTree(nodes_per_leaf={self.nodes_per_leaf}, taper={self.taper})"


class Torus(NetworkTopology):
    """k-ary d-dimensional torus with dimension-order hop counting.

    Long paths pay per-hop latency; traffic that crosses the dimension-0
    midline additionally serializes on one of ``bisection_ways`` aggregated
    bisection-link resources, modelling the low bisection bandwidth the
    paper attributes to torus networks.
    """

    def __init__(self, dims: Sequence[int], bisection_ways: int = 4) -> None:
        self.dims = tuple(check_positive(f"dims[{i}]", d) for i, d in enumerate(dims))
        if not self.dims:
            raise ValueError("dims must be non-empty")
        self.bisection_ways = check_positive("bisection_ways", bisection_ways)
        self.n_nodes = math.prod(self.dims)

    def coords_of(self, node: int) -> tuple[int, ...]:
        if not 0 <= node < self.n_nodes:
            raise ValueError(f"node {node} out of range [0, {self.n_nodes})")
        coords = []
        for d in reversed(self.dims):
            coords.append(node % d)
            node //= d
        return tuple(reversed(coords))

    def _ring_dist(self, a: int, b: int, k: int) -> int:
        d = abs(a - b)
        return min(d, k - d)

    def hops(self, node_a: int, node_b: int) -> int:
        if node_a == node_b:
            return 0
        ca, cb = self.coords_of(node_a), self.coords_of(node_b)
        return sum(self._ring_dist(x, y, k) for x, y, k in zip(ca, cb, self.dims)) + 1

    def classify(self, node_a: int, node_b: int) -> LinkClass:
        if node_a == node_b:
            return LinkClass.SELF
        # More than half the diameter away in dim 0 => crosses the bisection.
        return LinkClass.INTER_GROUP if self._crosses_bisection(node_a, node_b) else LinkClass.INTER_NODE

    def _crosses_bisection(self, node_a: int, node_b: int) -> bool:
        k = self.dims[0]
        if k < 2:
            return False
        half = k // 2
        xa = self.coords_of(node_a)[0]
        xb = self.coords_of(node_b)[0]
        return (xa < half) != (xb < half)

    def link_choices(self, node_a: int, node_b: int) -> tuple[tuple[Hashable, ...], ...]:
        """Adaptive routing spreads bisection crossings over the lanes."""
        if node_a == node_b or not self._crosses_bisection(node_a, node_b):
            return ()
        return (tuple(("bisect", lane) for lane in range(self.bisection_ways)),)

    def describe(self) -> str:  # pragma: no cover - cosmetic
        return f"Torus(dims={self.dims})"
