"""Algorithm 1: building the Distance Halving communication pattern.

The builder runs the recursive halving for *all* ranks in lockstep levels.
At level ``t`` every rank interval larger than ``L`` (ranks per socket)
splits around its midpoint; within each split two matching rounds run —
lower ranks select agents among upper ranks, then vice versa — using the
shared-outgoing-neighbor scores of Matrix A.  Matched pairs exchange duty
descriptors ``D`` (which delivery obligations move to the agent), exactly
as Algorithm 1's Lines 25-49.

State, as arrays over the topology's off-diagonal edges (self-loops are
local copies, ``self_copy``):

* ``holder[e]`` — the one rank that still owes edge ``e = (src, dst)`` its
  delivery; it starts as ``src``.  The paper's per-rank duties are the
  alive edges a rank holds: ``O_on`` those with ``src`` equal to the
  rank, ``O_org`` the rest.  At each level a giver's alive edges whose
  ``dst`` lies in its opposite half ``h2`` move to its agent (the
  descriptor ``D``, ``O_off``); an edge whose ``dst`` is the agent itself
  is delivered on receipt and dies.  All moves of a level are computed
  from the pre-level snapshot.
* ``blocks[r]`` — ordered contents of ``main_buf`` in ``m``-byte blocks
  (source rank per block; duplicates possible since buffers are forwarded
  wholesale).

The edges still alive after the last level form the final phase: one
combined message per (holder, dst) pair, its blocks in ``main_buf`` order.

The delivery invariant — every topology edge is delivered exactly once,
either to an agent that is itself the target (during halving) or in the
final phase — is checked by :func:`check_pattern` and property-tested.
"""

from __future__ import annotations

from collections import defaultdict
from itertools import chain

import numpy as np

from repro.cluster.machine import Machine
from repro.collectives.distance_halving.matrix_a import adjacency_matrix, half_scores
from repro.collectives.distance_halving.negotiation import (
    NegotiationOutcome,
    greedy_matching,
    protocol_matching,
    random_matching,
)
from repro.collectives.distance_halving.pattern import (
    CommunicationPattern,
    FinalRecv,
    FinalSend,
    HalvingStep,
    PatternStats,
    RankPattern,
)
from repro.topology.graph import DistGraphTopology

_SELECTIONS = ("greedy", "protocol", "random")
#: Builds a pattern record from a tuple of its fields, in field order,
#: without the Python-level ``__new__`` of a named tuple's keyword call.
_new = tuple.__new__


def halving_levels(
    n: int, stop: int
) -> list[list[tuple[tuple[int, int], tuple[int, int]]]]:
    """The lockstep halving geometry: per level, the ``(lower, upper)``
    halves of every half-open rank interval that splits at that level.

    Level 0 splits ``[0, n)``.  An interval ``[lo, hi)`` of more than
    ``stop`` ranks splits into ``lower = (lo, mid + 1)`` and
    ``upper = (mid + 1, hi)`` around the paper's inclusive midpoint
    ``mid = (lo + hi - 1) // 2``, so the lower half keeps the odd rank; an
    interval of at most ``stop`` ranks splits no further.  Halving ends at
    the first level where nothing splits, so every level is non-empty and
    ``len(levels)`` is the number of halving steps.
    """
    levels = []
    intervals = [(0, n)]
    while True:
        level = []
        for lo, hi in intervals:
            if hi - lo > stop:
                mid = (lo + hi - 1) // 2
                level.append(((lo, mid + 1), (mid + 1, hi)))
        if not level:
            return levels
        levels.append(level)
        intervals = [half for split in level for half in split]


def build_patterns(
    topology: DistGraphTopology,
    machine: Machine,
    selection: str = "greedy",
    stop_ranks: int | None = None,
    seed: int = 0,
    record_pairs: bool = False,
) -> CommunicationPattern:
    """Build the Distance Halving pattern for every rank.

    Parameters
    ----------
    topology, machine:
        The virtual topology and the machine (only ``ranks_per_socket`` and
        the communicator size matter for the pattern itself).
    selection:
        ``"greedy"`` computes the protocol's fixed point directly (fast
        path); ``"protocol"`` emulates the REQ/ACCEPT/DROP/EXIT signal
        exchange message-by-message and records signal counts in the stats
        (used for the Fig. 8 overhead study) — both produce identical
        matchings.  ``"random"`` is the ablation baseline that ignores the
        load-aware shared-neighbor scores.
    stop_ranks:
        Halving stops when intervals reach this many ranks; defaults to the
        machine's ranks-per-socket ``L`` (the paper's choice).  ``1`` halves
        all the way down — the ablation for the socket-granularity stop.
    seed:
        RNG seed for ``selection="random"``.
    record_pairs:
        Also record the exact (source, target) duty pairs moved in every
        step (``HalvingStep.send_pairs``/``recv_pairs``) — required by the
        alltoall variant, skipped by default to keep allgather patterns
        lean.
    """
    if selection not in _SELECTIONS:
        raise ValueError(f"selection must be one of {_SELECTIONS}, got {selection!r}")
    n = topology.n
    L = machine.spec.ranks_per_socket if stop_ranks is None else stop_ranks
    if L < 1:
        raise ValueError(f"stop_ranks must be >= 1, got {L}")
    rng = np.random.default_rng(seed)
    stats = PatternStats()

    adj = adjacency_matrix(topology)
    adj_f32 = adj.astype(np.float32)
    # calculate_A (Algorithm 1, line 4): every rank learns every other
    # rank's outgoing-neighbor list — an all-to-all of neighbor lists.
    stats.matrix_a_messages = n * (n - 1)

    patterns = [
        RankPattern(rank=r, self_copy=loop) for r, loop in enumerate(adj.diagonal().tolist())
    ]
    src, dst = np.nonzero(adj)
    off_diagonal = src != dst
    src = src[off_diagonal].astype(np.int32)
    dst = dst[off_diagonal].astype(np.int32)
    holder = src.copy()
    alive = np.ones(src.size, dtype=bool)
    # The pattern stores ranks as these n int objects: ndarray.tolist()
    # would allocate a fresh int per entry.
    rank_ids = np.array(range(n), dtype=object)
    blocks: list[list[int]] = [[r] for r in rank_ids.tolist()]

    levels = halving_levels(n, L)
    for t, level in enumerate(levels):
        agent_of = np.full(n, -1, dtype=np.int32)
        # Every splitting rank's opposite half h2 = [h2_lo, h2_hi); empty
        # for the other ranks.
        h2_lo = np.zeros(n, dtype=np.int32)
        h2_hi = np.zeros(n, dtype=np.int32)
        for lower, upper in level:
            h2_lo[slice(*lower)], h2_hi[slice(*lower)] = upper
            h2_lo[slice(*upper)], h2_hi[slice(*upper)] = lower
            for searcher_iv, h2_iv in ((lower, upper), (upper, lower)):
                matching = _match_round(adj_f32, searcher_iv, h2_iv, selection, stats, rng)
                agent_of[list(matching)] = list(matching.values())
                stats.agent_successes += len(matching)

        givers = np.flatnonzero(agent_of >= 0)
        giver_list = rank_ids[givers].tolist()
        agent_list = rank_ids[agent_of[givers]].tolist()
        stats.descriptor_messages += len(giver_list)
        # Ranks with own targets in h2 needed an agent; a giver notifies
        # those targets of its agent (Line 30).
        own_in_h2 = np.bincount(src[(h2_lo[src] <= dst) & (dst < h2_hi[src])], minlength=n)
        stats.agent_attempts += int(np.count_nonzero(own_in_h2))
        stats.notification_messages += int(own_in_h2[givers].sum())

        # ---- snapshot-consistent descriptors (Lines 31-49) ----------------
        moving = np.flatnonzero(
            alive & (agent_of[holder] >= 0) & (h2_lo[holder] <= dst) & (dst < h2_hi[holder])
        )
        new_holder = agent_of[holder[moving]]
        delivered = moving[dst[moving] == new_holder]
        sent_blocks = {g: tuple(blocks[g]) for g in giver_list}

        # In-flight deliveries, in the order of their blocks in main_buf.
        d_src, d_dst = src[delivered], dst[delivered]
        first = _first_positions(blocks, holder[delivered], d_src)
        order = np.lexsort((first, d_dst))
        runs, (d_src, d_dst) = _sorted_runs(rank_ids, order, d_dst, d_src, d_dst)
        recv_for_me = {d_dst[a]: tuple(d_src[a:b]) for a, b in runs}

        pair_lists: dict[int, tuple[tuple[int, int], ...]] = {}
        if record_pairs:
            m_holder, m_src, m_dst = holder[moving], src[moving], dst[moving]
            order = np.lexsort((m_dst, m_src, m_holder))
            runs, (m_holder, m_src, m_dst) = _sorted_runs(
                rank_ids, order, m_holder, m_holder, m_src, m_dst
            )
            pair_lists = dict.fromkeys(giver_list, ())
            for a, b in runs:
                pair_lists[m_holder[a]] = tuple(zip(m_src[a:b], m_dst[a:b]))

        # ---- record steps for every participating rank --------------------
        agents_of = dict(zip(giver_list, agent_list))
        origins_of = dict(zip(agent_list, giver_list))
        for r in sorted(agents_of.keys() | origins_of.keys()):
            agent = agents_of.get(r)
            origin = origins_of.get(r)
            patterns[r].steps.append(
                _new(HalvingStep, (
                    t,
                    agent,
                    origin,
                    len(sent_blocks[r]) if agent is not None else 0,
                    sent_blocks[origin] if origin is not None else (),
                    recv_for_me.get(r, ()),
                    pair_lists.get(r) if agent is not None else None,
                    pair_lists.get(origin) if origin is not None else None,
                ))
            )

        # ---- move the descriptors' edges and buffers to the agents ---------
        holder[moving] = new_holder
        alive[delivered] = False
        for giver, agent in agents_of.items():
            blocks[agent].extend(sent_blocks[giver])

    stats.levels = len(levels)
    _build_final_phase(patterns, blocks, rank_ids, holder[alive], src[alive], dst[alive])
    return CommunicationPattern(n=n, ranks_per_socket=L, ranks=patterns, stats=stats)


def _match_round(
    adj_f32: np.ndarray,
    searcher_iv: tuple[int, int],
    h2_iv: tuple[int, int],
    selection: str,
    stats: PatternStats,
    rng: np.random.Generator,
) -> dict[int, int]:
    """One matching round: searchers pick agents in their opposite half.

    Scores are shared outgoing neighbors restricted to ``h2_iv`` — agents
    always live in the searcher's ``h2``, so the acceptors are ``h2_iv``.
    """
    h2 = range(*h2_iv)
    scores = half_scores(adj_f32, range(*searcher_iv), h2, h2)
    searchers = list(range(*searcher_iv))
    acceptors = list(h2)
    if selection == "protocol":
        outcome: NegotiationOutcome = protocol_matching(searchers, acceptors, scores)
        stats.protocol_messages += outcome.total_messages
        return outcome.matching
    if selection == "random":
        return random_matching(searchers, acceptors, scores, rng)
    return greedy_matching(searchers, acceptors, scores)


def _first_positions(
    blocks: list[list[int]], owners: np.ndarray, srcs: np.ndarray
) -> np.ndarray:
    """Index of the first block from ``srcs[k]`` in ``blocks[owners[k]]``."""
    n = len(blocks)
    ranks = np.unique(owners).tolist()
    lens = np.array([len(blocks[r]) for r in ranks], dtype=np.int64)
    flat = np.fromiter(
        chain.from_iterable(blocks[r] for r in ranks), dtype=np.int64, count=int(lens.sum())
    )
    keys = np.repeat(np.array(ranks, dtype=np.int64) * n, lens) + flat
    positions = np.arange(flat.size) - np.repeat(np.cumsum(lens) - lens, lens)
    # return_index sorts stably, so it reports each key's first occurrence.
    unique_keys, first = np.unique(keys, return_index=True)
    wanted = owners.astype(np.int64) * n + srcs
    return positions[first[np.searchsorted(unique_keys, wanted)]]


def _sorted_runs(
    rank_ids: np.ndarray, order: np.ndarray, key: np.ndarray, *columns: np.ndarray
) -> tuple[list[tuple[int, int]], list[list[int]]]:
    """Sort ``key`` and the rank-valued ``columns`` by ``order``: the
    ``[start, end)`` runs of equal ``key``, and the sorted columns as lists
    of ``rank_ids``."""
    key = key[order]
    cuts = (np.flatnonzero(key[1:] != key[:-1]) + 1).tolist()
    runs = list(zip([0, *cuts], [*cuts, key.size])) if key.size else []
    return runs, [rank_ids[column[order]].tolist() for column in columns]


def _build_final_phase(
    patterns: list[RankPattern],
    blocks: list[list[int]],
    rank_ids: np.ndarray,
    holder: np.ndarray,
    src: np.ndarray,
    dst: np.ndarray,
) -> None:
    """Turn the undelivered edges into final-phase send/recv lists (Lines
    19-33 of Algorithm 4): one combined message per (holder, target) pair,
    its blocks in ``main_buf`` order, sends by target and receives by
    sender."""
    n = len(blocks)
    key = holder.astype(np.int64) * n + dst
    # Sorted by (holder, dst, position of src in main_buf), one int64 key:
    # a buffer at most doubles per level, so a position is below 2n and
    # the key below 2n**3.
    order = np.argsort(key * (2 * n) + _first_positions(blocks, holder, src))
    runs, (holder, src, dst) = _sorted_runs(rank_ids, order, key, holder, src, dst)
    for a, b in runs:
        sender, target, packed = holder[a], dst[a], tuple(src[a:b])
        patterns[sender].final_sends.append(_new(FinalSend, (target, packed)))
        patterns[target].final_recvs.append(_new(FinalRecv, (sender, packed)))


def check_pattern(topology: DistGraphTopology, pattern: CommunicationPattern) -> None:
    """Assert the exactly-once delivery invariant and buffer consistency.

    Every topology edge ``(u, v)`` must be delivered to ``v`` exactly once:
    as a self-loop local copy, via ``recv_for_me`` during halving, or in a
    final-phase message.  Raises :class:`AssertionError` otherwise.
    """
    deliveries: dict[tuple[int, int], int] = defaultdict(int)
    for rp in pattern.ranks:
        if rp.self_copy:
            deliveries[(rp.rank, rp.rank)] += 1
        for step in rp.steps:
            for src in step.recv_for_me:
                deliveries[(src, rp.rank)] += 1
        for fr in rp.final_recvs:
            for src in fr.blocks:
                deliveries[(src, rp.rank)] += 1

    expected = set(topology.edges())
    got = set(deliveries)
    missing = expected - got
    extra = got - expected
    if missing:
        raise AssertionError(f"edges never delivered: {sorted(missing)[:10]} ...")
    if extra:
        raise AssertionError(f"deliveries for non-edges: {sorted(extra)[:10]} ...")
    dupes = {e: c for e, c in deliveries.items() if c != 1}
    if dupes:
        raise AssertionError(f"edges delivered more than once: {dict(list(dupes.items())[:10])}")

    # Send/recv lists must mirror each other.
    sends = {
        (rp.rank, fs.target, fs.blocks) for rp in pattern.ranks for fs in rp.final_sends
    }
    recvs = {
        (fr.sender, rp.rank, fr.blocks) for rp in pattern.ranks for fr in rp.final_recvs
    }
    if sends != recvs:
        raise AssertionError(
            f"final-phase send/recv mismatch: only-sends={list(sends - recvs)[:5]}, "
            f"only-recvs={list(recvs - sends)[:5]}"
        )
