"""The Common Neighbor algorithm (Ghazimirsaeed et al., IPDPS'19).

Groups of ``K`` ranks (consecutive, socket-local — the collaborating
processes must be cheap to reach) combine messages: members first exchange
their blocks inside the group (phase 1), then, for every outgoing neighbor
shared by group members, a single *assignee* delivers one combined message
carrying all the group's blocks destined to that neighbor (phase 2).
Neighbors of only one member keep their original sender, so combining never
adds hops where it cannot remove messages.

A group's plan depends only on which members feed each target, so the
planner (:func:`_plan`) works from *source masks*: for every (group,
target) pair, the bitmask of the members that send to the target (bit
``i`` is the group's ``i``-th rank).  One sort of the edges by pair gives
every mask; the least-loaded assignment of shared targets runs the groups
side by side, one round per shared target of a group, with the members'
single-source targets as prefix counts; a target's block tuple is its
mask's member list, built once per distinct (group, mask) and shared by
the send and receive lists; and the phase-1 exchanges are the OR of the
masks each assignee covers.

The paper runs this baseline "with various values of K" and reports the
best; the benchmarks do the same (see ``repro.bench``).
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from itertools import chain, islice
from numbers import Integral
from typing import Iterator

import numpy as np

from repro.cluster.machine import Machine
from repro.collectives.base import (
    ExecutionContext,
    NeighborhoodAllgatherAlgorithm,
    SetupStats,
    register_algorithm,
)
from repro.cluster.spec import LinkClass
from repro.topology.graph import DistGraphTopology
from repro.utils.validation import check_positive

#: Tags for the two phases.
P1_TAG = 1
P2_TAG = 2


@dataclass
class _RankPlan:
    """Per-rank plan: who I exchange with in each phase."""

    group: tuple[int, ...] = ()
    phase1_sends: tuple[int, ...] = ()           #: members I send my block to
    phase1_recvs: tuple[int, ...] = ()           #: members whose block I receive
    phase1_for_me: tuple[int, ...] = ()          #: subset that lands in my rbuf
    phase2_sends: tuple[tuple[int, tuple[int, ...]], ...] = ()  #: (target, blocks)
    phase2_recvs: tuple[tuple[int, tuple[int, ...]], ...] = ()  #: (assignee, blocks)
    self_copy: bool = False


@register_algorithm(
    capabilities=("oracle", "bench"),
    label="cn",
    bench_kwargs=(("k", 4),),
    tuning=(("k", (2, 4, 8)),),
)
class CommonNeighborAllgather(NeighborhoodAllgatherAlgorithm):
    """Message combining over groups of ``k`` common-neighbor ranks."""

    name = "common_neighbor"

    def __init__(self, k: int = 4) -> None:
        super().__init__()
        if not isinstance(k, Integral):
            raise TypeError(f"k must be an integer, got {k!r}")
        self.k = check_positive("k", k)
        self.plans: list[_RankPlan] | None = None

    # -------------------------------------------------------------- building
    def _build(self, topology: DistGraphTopology, machine: Machine) -> SetupStats:
        start = time.perf_counter()
        n = topology.n
        groups = self._form_groups(n, machine)
        self.plans = _plan(topology, groups)

        # Setup communication, as in the published design: every rank learns
        # the outgoing-neighbor lists of the others to build its Matrix A
        # (an all-to-all of neighbor lists, n*(n-1) messages), plus the
        # intra-group exchange that settles assignments.
        setup_messages = n * (n - 1) + sum(len(g) * (len(g) - 1) for g in groups)

        wall = time.perf_counter() - start
        cost = machine.params.cost(LinkClass.INTER_NODE)
        # Neighbor lists are outdegree 4-byte rank ids.
        avg_list_bytes = 4.0 * topology.average_outdegree
        simulated = 2.0 * (setup_messages / max(1, n)) * (cost.alpha + avg_list_bytes / cost.beta)
        return SetupStats(
            protocol_messages=setup_messages,
            simulated_time=simulated,
            wall_time=wall,
            extras={"k": self.k, "groups": len(groups)},
        )

    def _form_groups(self, n: int, machine: Machine) -> list[tuple[int, ...]]:
        """Consecutive chunks of ``k`` ranks, never straddling a socket."""
        L = machine.spec.ranks_per_socket
        groups: list[tuple[int, ...]] = []
        for socket_start in range(0, n, L):
            socket_end = min(socket_start + L, n)
            for lo in range(socket_start, socket_end, self.k):
                groups.append(tuple(range(lo, min(lo + self.k, socket_end))))
        return groups

    # -------------------------------------------------------------- operation
    def rank_ops(self, ctx: ExecutionContext, rank: int) -> Iterator[tuple]:
        self.require_setup()
        assert self.plans is not None
        plan = self.plans[rank]
        sizes_of = ctx.sizer()
        size = ctx.size_table
        my_size = size[rank]
        own = (rank,)
        if plan.self_copy:
            yield ("charge", my_size)
            yield ("deliver", own)

        # Phase 1: exchange blocks within the group.
        for src in plan.phase1_recvs:
            yield ("recv", src, P1_TAG, size[src])
        for dst in plan.phase1_sends:
            yield ("send", dst, my_size, P1_TAG, own)
        if plan.phase1_recvs or plan.phase1_sends:
            yield ("wait",)
        for src in plan.phase1_recvs:
            yield ("charge", size[src])  # stage into the combining buffer
        if plan.phase1_for_me:
            yield ("deliver", plan.phase1_for_me)

        # Phase 2: one combined message per assigned external target.
        for target, blocks in plan.phase2_sends:
            nbytes = sizes_of(blocks)
            yield ("charge", nbytes)  # pack
            yield ("send", target, nbytes, P2_TAG, blocks)
        for sender, blocks in plan.phase2_recvs:
            yield ("recv", sender, P2_TAG, sizes_of(blocks))
        if plan.phase2_sends or plan.phase2_recvs:
            yield ("wait",)
        for _, blocks in plan.phase2_recvs:
            yield ("charge", sizes_of(blocks))  # unpack into rbuf
            yield ("deliver", blocks)


def _plan(topology: DistGraphTopology, groups: list[tuple[int, ...]]) -> list[_RankPlan]:
    """Every rank's plan, built from the groups' source masks.

    A *pair* is a group and a target that at least one of its members
    sends to (self-loops are local copies and set no bit).  Its target's
    *assignee* delivers the group's blocks to it:

    * a member target receives them itself, through phase 1;
    * an outside target of one member keeps that member as its sender;
    * an outside target of several members (a *shared* target) goes, in
      ascending target order, to the member with the least load so far,
      ties to the lowest rank, where a member's load is its number of
      one-member targets so far plus the blocks of the shared targets it
      took.

    Everything but the shared targets' assignment is array work, and that
    runs every group at once (:func:`_least_loaded`).  The result is the
    per-target planner's, plan for plan.
    """
    n = topology.n
    out = [topology.out_neighbors(u) for u in range(n)]
    src = np.repeat(np.arange(n), [len(nbrs) for nbrs in out])
    dst = np.fromiter(chain.from_iterable(out), dtype=np.intp, count=topology.n_edges)
    loop = src == dst
    self_copy = np.zeros(n, dtype=bool)
    self_copy[src[loop]] = True
    src, dst = src[~loop], dst[~loop]

    sizes = [len(group) for group in groups]
    n_groups, width = len(groups), max(sizes)
    group_of = np.repeat(np.arange(n_groups), sizes)
    lows = np.array([group[0] for group in groups])
    slot = np.arange(n) - lows[group_of]  # a rank's bit in its group's masks
    # Codes below put a rank or group above a mask's bits; where that
    # passes int64, masks are Python ints.
    dtype = np.int64 if n << width < 1 << 63 else object
    bits = np.array([1 << i for i in range(width)], dtype=dtype)
    rank_ids = np.fromiter(range(n), dtype=object, count=n)  # one int per rank

    # Edges sorted by pair: group, then target.
    key = group_of[src] * n + dst
    order = np.argsort(key)
    key, src = key[order], src[order]
    first = np.flatnonzero(np.diff(key, prepend=-1))  # each pair's first edge
    count = np.diff(first, append=key.size)
    mask = np.bitwise_or.reduceat(bits[slot[src]], first)
    group, target = np.divmod(key[first], n)
    member = group_of[target] == group
    assignee = np.where(member, target, src[first])  # exact but for shared pairs

    shared = np.flatnonzero(~member & (count > 1))
    if shared.size:
        assignee[shared] = lows[group[shared]] + _least_loaded(
            shared, group, count, slot[assignee], ~member & (count == 1), sizes, key.size
        )

    # Phase 2: a pair's blocks are its mask's members, one tuple per
    # distinct (group, mask), shared by the send and the receive lists.
    # A receive entry (assignee, blocks) depends only on the assignee and
    # the mask, so the receive lists share one entry per such pair too.
    outside = np.flatnonzero(~member)
    senders, targets, masks = assignee[outside], target[outside], mask[outside]
    codes, kind = np.unique((group[outside].astype(dtype) << width) + masks, return_inverse=True)
    blocks = _objects(_member_tuples(
        lows[(codes >> width).astype(np.intp)], _bits(codes & ((1 << width) - 1), width)
    ))
    _, rep, entry = np.unique(
        (senders.astype(dtype) << width) + masks, return_index=True, return_inverse=True
    )
    entries = _objects(list(zip(rank_ids[senders[rep]].tolist(), blocks[kind[rep]].tolist())))
    by_sender = np.argsort(senders, kind="stable")  # targets stay ascending
    by_target = np.argsort(targets, kind="stable")  # assignees stay ascending
    sends = _per_rank(
        senders, zip(rank_ids[targets[by_sender]].tolist(), blocks[kind[by_sender]].tolist()), n
    )
    recvs = _per_rank(targets, entries[entry[by_target]].tolist(), n)

    # Phase 1: an assignee needs the blocks of every member in the masks
    # of its targets but its own; a member target's own mask is what
    # phase 1 delivers to it.
    need = np.zeros(n, dtype=dtype)
    np.bitwise_or.at(need, assignee, mask)
    need &= ~bits[slot]
    for_me = np.zeros(n, dtype=dtype)
    for_me[target[member]] = mask[member]
    recv_from = _bits(need, width)
    # Rank r sends to the members whose needs have r's bit: its group's
    # block of recv_from, transposed.
    rank_lows = lows[group_of]
    peers = rank_lows[:, None] + np.arange(width)
    in_group = peers < (rank_lows + np.array(sizes)[group_of])[:, None]
    send_to = recv_from[np.where(in_group, peers, 0), slot[:, None]] & in_group
    return list(map(
        _RankPlan,
        [groups[g] for g in group_of.tolist()],
        _member_tuples(rank_lows, send_to),
        _member_tuples(rank_lows, recv_from),
        _member_tuples(rank_lows, _bits(for_me, width)),
        sends,
        recvs,
        self_copy.tolist(),
    ))


def _least_loaded(
    shared: np.ndarray,
    group: np.ndarray,
    count: np.ndarray,
    owner_slot: np.ndarray,
    single: np.ndarray,
    sizes: list[int],
    n_edges: int,
) -> np.ndarray:
    """The slot of each shared pair's assignee.

    ``shared`` indexes the shared pairs among all pairs (sorted by group,
    then target); ``single`` flags the one-member pairs, whose member's
    slot is ``owner_slot``.  A group's shared pairs are assigned in target
    order, so the groups run side by side: round ``j`` assigns every
    group's ``j``-th shared pair at once.
    """
    width = max(sizes)
    # owned[s, i]: slot i's one-member pairs in shared pair s's group
    # before it, a difference of prefix counts.
    onehot = np.zeros((group.size + 1, width), dtype=np.int32)
    ones = np.flatnonzero(single)
    onehot[ones + 1, owner_slot[ones]] = 1
    before = onehot.cumsum(axis=0, dtype=np.int32)
    shared_group = group[shared]
    owned = before[shared] - before[np.searchsorted(group, shared_group)]

    # In round order, each round's pairs are one slice.
    rounds = np.arange(shared.size) - np.searchsorted(shared_group, shared_group)
    by_round = np.argsort(rounds)
    bounds = np.searchsorted(rounds[by_round], np.arange(rounds.max() + 2)).tolist()
    owned, shared_group, blocks = owned[by_round], shared_group[by_round], count[shared[by_round]]
    # taken[g, i]: blocks of the shared pairs slot i of group g took so
    # far; a slot past the group's size is never least loaded.
    taken = np.where(np.arange(width) < np.array(sizes)[:, None], 0, n_edges + 1)
    picks = np.empty(shared.size, dtype=np.intp)
    for a, b in zip(bounds, bounds[1:]):
        groups = shared_group[a:b]  # distinct: one pair per group a round
        best = (owned[a:b] + taken[groups]).argmin(axis=1)  # ties: lowest slot
        taken[groups, best] += blocks[a:b]
        picks[by_round[a:b]] = best
    return picks


def _bits(masks: np.ndarray, width: int) -> np.ndarray:
    """``masks`` as a bool matrix: row ``r`` column ``i`` is bit ``i``."""
    return (masks[:, None] >> np.arange(width)) & 1 == 1


def _member_tuples(lows: np.ndarray, has: np.ndarray) -> list[tuple[int, ...]]:
    """Per row ``r`` of the bool matrix ``has``, the tuple of ranks
    ``lows[r] + i`` of its set columns ``i``, ascending."""
    ranks = (lows[:, None] + np.arange(has.shape[1]))[has].tolist()
    ends = np.cumsum(has.sum(axis=1)).tolist()
    return [tuple(ranks[a:b]) for a, b in zip([0, *ends], ends)]


def _objects(items: list) -> np.ndarray:
    """``items`` as a 1-d object array (which ``np.array`` would not make
    of equal-length tuples)."""
    return np.fromiter(items, dtype=object, count=len(items))


def _per_rank(keys: np.ndarray, items, n: int) -> list[tuple]:
    """``items``, sorted by rank, as one tuple per rank: rank ``r`` takes
    as many as ``keys`` holds ``r``."""
    items = iter(items)
    return [tuple(islice(items, count)) for count in np.bincount(keys, minlength=n).tolist()]
