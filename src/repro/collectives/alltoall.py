"""Neighborhood alltoall — the paper's stated future work (Section VIII).

``MPI_Neighbor_alltoall`` sends a *distinct* block to every outgoing
neighbor.  Three implementations:

* :class:`NaiveAlltoall` — one point-to-point message per edge (the default
  MPI behaviour, identical schedule to the naive allgather).
* :class:`CommonNeighborAlltoall` — Common Neighbor's groups and assignees,
  with each combined message carrying the distinct blocks of its targets.
* :class:`DistanceHalvingAlltoall` — the paper's halving/agent machinery
  adapted to distinct blocks.  The communication pattern (agents, origins,
  duty transfers) is exactly the allgather pattern built with
  ``record_pairs=True``; the difference is payload handling: a carrier
  forwards *only the pending duty blocks* (allgather forwards its whole
  accumulated buffer because every target wants every block), so message
  sizes equal the number of moved (source, target) pairs times ``m`` and
  total moved bytes are bounded by ``levels x edges``, while the message
  *count* drops from ``degree`` to ``O(log n + L)`` per rank exactly as in
  the allgather case.

Each backend writes one op stream per rank (:meth:`NaiveAlltoall.rank_ops`)
in the vocabulary of :mod:`repro.sim.program`, the same one the allgather
backends use (Träff et al. treat sparse allgather and alltoall as one
scheme that differs only in the blocks moved).  A block id is
``src * n + tgt``, the block ``src`` sends to ``tgt``; the engine runs each
stream through :func:`~repro.sim.program.rank_program`, which checks every
send against the blocks the rank holds and every delivery against the
blocks that arrived.

Use :func:`run_alltoall` / :func:`verify_alltoall`; payload identity is the
``(source, target)`` pair, so misrouted blocks are always caught.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Any, Callable, Iterator

from repro.cluster.machine import Machine
from repro.collectives.distance_halving.builder import build_patterns
from repro.collectives.distance_halving.operation import FINAL_TAG
from repro.collectives.distance_halving.pattern import CommunicationPattern
from repro.sim.engine import Engine
from repro.sim.program import rank_program
from repro.sim.tracing import TraceCollector
from repro.topology.graph import DistGraphTopology
from repro.utils.sizes import parse_size

#: Payload factory signature: ``payload_fn(src, dst) -> Any``.
PayloadFn = Callable[[int, int], Any]
#: Per-pair block size signature: ``pair_sizes(src, dst) -> bytes``
#: (the alltoallv generalization; constant for plain alltoall).
PairSizeFn = Callable[[int, int], int]

_A2A_TAG = 0


@dataclass
class AlltoallRun:
    """Outcome of one simulated ``MPI_Neighbor_alltoall``."""

    algorithm: str
    msg_size: int
    simulated_time: float
    finish_times: dict[int, float]
    messages_sent: int
    bytes_sent: int
    results: list[dict[int, Any]] = field(repr=False, default_factory=list)
    trace: TraceCollector | None = field(repr=False, default=None)
    setup_wall_time: float = 0.0


class NaiveAlltoall:
    """Direct per-edge isend/irecv, as mainstream MPI libraries do."""

    name = "naive_alltoall"

    def setup(self, topology: DistGraphTopology, machine: Machine) -> None:
        return None

    def rank_ops(
        self, rank: int, topology: DistGraphTopology, psize: PairSizeFn
    ) -> Iterator[tuple] | None:
        """Rank ``rank``'s op stream, or ``None`` for a rank without edges
        (the engine does not spawn it).  ``psize(src, tgt)`` is the byte
        size of block ``src * n + tgt``."""
        out_nbrs = topology.out_neighbors(rank)
        in_nbrs = topology.in_neighbors(rank)
        if not out_nbrs and not in_nbrs:
            return None
        return self._ops(rank, topology.n, out_nbrs, in_nbrs, psize)

    @staticmethod
    def _ops(rank, n, out_nbrs, in_nbrs, psize) -> Iterator[tuple]:
        srcs = [src for src in in_nbrs if src != rank]
        for src in srcs:
            yield ("recv", src, _A2A_TAG, psize(src, rank))
        dsts = [dst for dst in out_nbrs if dst != rank]
        for dst in dsts:
            yield ("send", dst, psize(rank, dst), _A2A_TAG, (rank * n + dst,))
        if rank in out_nbrs:
            yield ("charge", psize(rank, rank))
            yield ("deliver", (rank * n + rank,))
        if srcs or dsts:
            yield ("wait",)
        yield ("deliver", tuple(src * n + rank for src in srcs))


class DistanceHalvingAlltoall:
    """Distance-halving alltoall: same agents, distinct per-target blocks."""

    name = "distance_halving_alltoall"

    def __init__(self, selection: str = "greedy", stop_ranks: int | None = None) -> None:
        self.selection = selection
        self.stop_ranks = stop_ranks
        self.pattern: CommunicationPattern | None = None
        # What the pattern was built for, held (not by id) so a recycled
        # address can never replay another topology's pattern.
        self._topology: DistGraphTopology | None = None
        self._machine: Machine | None = None

    def setup(self, topology: DistGraphTopology, machine: Machine) -> None:
        if self._topology is topology and self._machine is machine:
            return
        self.pattern = build_patterns(
            topology,
            machine,
            selection=self.selection,
            stop_ranks=self.stop_ranks,
            record_pairs=True,
        )
        self._topology, self._machine = topology, machine

    def rank_ops(
        self, rank: int, topology: DistGraphTopology, psize: PairSizeFn
    ) -> Iterator[tuple]:
        """Rank ``rank``'s op stream (see :meth:`NaiveAlltoall.rank_ops`)."""
        assert self.pattern is not None
        rp = self.pattern[rank]
        n = topology.n

        def pairs_bytes(pairs) -> int:
            return sum(psize(src, tgt) for src, tgt in pairs)

        # Stage the sbuf blocks this rank carries as duties.
        yield ("charge", sum(psize(rank, v) for v in topology.out_neighbors(rank) if v != rank))
        if rp.self_copy:
            yield ("charge", psize(rank, rank))
            yield ("deliver", (rank * n + rank,))

        for step in rp.steps:
            if step.agent is None and step.origin is None:
                continue
            if step.agent is not None:
                pairs = step.send_pairs or ()
                yield ("send", step.agent, pairs_bytes(pairs), step.index,
                       tuple(src * n + tgt for src, tgt in pairs))
            if step.origin is not None:
                pairs = step.recv_pairs or ()
                nbytes = pairs_bytes(pairs)
                yield ("recv", step.origin, step.index, nbytes)
            yield ("wait",)
            if step.origin is not None:
                yield ("charge", nbytes)
                mine = tuple(src * n + rank for src, tgt in pairs if tgt == rank)
                if mine:
                    yield ("deliver", mine)

        # Final phase: pending duties, one combined message per target.
        if not rp.final_sends and not rp.final_recvs:
            return
        for fs in rp.final_sends:
            nbytes = sum(psize(src, fs.target) for src in fs.blocks)
            yield ("charge", nbytes)
            yield ("send", fs.target, nbytes, FINAL_TAG,
                   tuple(src * n + fs.target for src in fs.blocks))
        for fr in rp.final_recvs:
            yield ("recv", fr.sender, FINAL_TAG, sum(psize(src, rank) for src in fr.blocks))
        yield ("wait",)
        for fr in rp.final_recvs:
            yield ("charge", sum(psize(src, rank) for src in fr.blocks))
            yield ("deliver", tuple(src * n + rank for src in fr.blocks))


class CommonNeighborAlltoall:
    """Common Neighbor message combining adapted to distinct blocks.

    The group/assignee structure is exactly the allgather plan; the only
    change is payload routing: in phase 1 a member ships the assignee the
    *distinct* blocks of the targets it covers (message size scales with
    the number of covered targets), and phase 2 combines per-target blocks
    from all group members into one message as before.
    """

    name = "common_neighbor_alltoall"

    def __init__(self, k: int = 4) -> None:
        from repro.collectives.common_neighbor import CommonNeighborAllgather

        self._inner = CommonNeighborAllgather(k=k)
        self.k = k
        #: (g -> a) phase-1 pair -> targets whose (g, target) block moves.
        self._pair_targets: dict[tuple[int, int], tuple[int, ...]] | None = None
        # What the plan was built for, held by reference (see
        # DistanceHalvingAlltoall).
        self._topology: DistGraphTopology | None = None
        self._machine: Machine | None = None

    def setup(self, topology: DistGraphTopology, machine: Machine) -> None:
        if self._topology is topology and self._machine is machine:
            return
        self._inner.setup(topology, machine)
        plans = self._inner.plans
        assert plans is not None
        pair_targets: dict[tuple[int, int], tuple[int, ...]] = {}
        for g, plan in enumerate(plans):
            for a in plan.phase1_sends:
                targets = [
                    v for v, blocks in plans[a].phase2_sends if g in blocks
                ]
                if g in plans[a].phase1_for_me:
                    targets.append(a)  # the assignee is itself a target of g
                pair_targets[(g, a)] = tuple(sorted(targets))
        self._pair_targets = pair_targets
        self._topology, self._machine = topology, machine

    def rank_ops(
        self, rank: int, topology: DistGraphTopology, psize: PairSizeFn
    ) -> Iterator[tuple]:
        """Rank ``rank``'s op stream (see :meth:`NaiveAlltoall.rank_ops`)."""
        assert self._inner.plans is not None and self._pair_targets is not None
        plan = self._inner.plans[rank]
        pair_targets = self._pair_targets
        n = topology.n

        if plan.self_copy:
            yield ("charge", psize(rank, rank))
            yield ("deliver", (rank * n + rank,))

        # Phase 1: ship each assignee the distinct blocks it covers.
        for src in plan.phase1_recvs:
            yield ("recv", src, 1, sum(psize(src, v) for v in pair_targets[(src, rank)]))
        for a in plan.phase1_sends:
            targets = pair_targets[(rank, a)]
            nbytes = sum(psize(rank, v) for v in targets)
            yield ("charge", nbytes)
            yield ("send", a, nbytes, 1, tuple(rank * n + v for v in targets))
        if plan.phase1_recvs or plan.phase1_sends:
            yield ("wait",)
        for src in plan.phase1_recvs:
            targets = pair_targets[(src, rank)]
            yield ("charge", sum(psize(src, v) for v in targets))
            if rank in targets:
                yield ("deliver", (src * n + rank,))

        # Phase 2: combined per-target messages.
        for target, blocks in plan.phase2_sends:
            nbytes = sum(psize(src, target) for src in blocks)
            yield ("charge", nbytes)
            yield ("send", target, nbytes, 2, tuple(src * n + target for src in blocks))
        for sender, blocks in plan.phase2_recvs:
            yield ("recv", sender, 2, sum(psize(src, rank) for src in blocks))
        if plan.phase2_sends or plan.phase2_recvs:
            yield ("wait",)
        for _, blocks in plan.phase2_recvs:
            yield ("charge", sum(psize(src, rank) for src in blocks))
            yield ("deliver", tuple(src * n + rank for src in blocks))


_ALLTOALL = {
    "naive_alltoall": NaiveAlltoall,
    "common_neighbor_alltoall": CommonNeighborAlltoall,
    "distance_halving_alltoall": DistanceHalvingAlltoall,
}


def alltoall_algorithms() -> tuple[str, ...]:
    return tuple(sorted(_ALLTOALL))


def run_alltoall(
    algorithm: str | NaiveAlltoall | CommonNeighborAlltoall | DistanceHalvingAlltoall,
    topology: DistGraphTopology,
    machine: Machine,
    msg_size: int | str,
    *,
    payload_fn: PayloadFn | None = None,
    pair_sizes: PairSizeFn | None = None,
    trace: bool = False,
    **algorithm_kwargs,
) -> AlltoallRun:
    """Simulate one neighborhood alltoall; see :func:`run_allgather` for the
    parameter conventions.  ``payload_fn(src, dst)`` defaults to the
    ``(src, dst)`` tuple so delivery is identity-checkable.

    ``pair_sizes(src, dst)`` selects alltoallv semantics — a distinct byte
    count per (source, target) pair; ``msg_size`` then only seeds the
    reported default.  All implementations handle variable pair sizes
    natively (byte arithmetic is per pair throughout).
    """
    if isinstance(algorithm, str):
        try:
            algorithm = _ALLTOALL[algorithm](**algorithm_kwargs)
        except KeyError:
            raise KeyError(
                f"unknown alltoall algorithm {algorithm!r}; available: {alltoall_algorithms()}"
            ) from None
    elif algorithm_kwargs:
        raise ValueError("algorithm_kwargs only apply when algorithm is a name")
    msg_size = parse_size(msg_size)
    if payload_fn is None:
        payload_fn = lambda src, dst: (src, dst)  # noqa: E731
    psize: PairSizeFn = pair_sizes if pair_sizes is not None else (lambda u, v: msg_size)

    wall = time.perf_counter()
    algorithm.setup(topology, machine)
    setup_wall = time.perf_counter() - wall

    n = topology.n
    payloads = {u * n + v: payload_fn(u, v) for u, v in topology.edges()}
    delivered: list[dict[int, Any]] = [{} for _ in range(n)]
    collector = TraceCollector() if trace else None
    engine = Engine(n_ranks=n, machine=machine, trace=collector)

    def program(rank: int):
        ops = algorithm.rank_ops(rank, topology, psize)
        if ops is None:
            return None
        held = [rank * n + v for v in topology.out_neighbors(rank)]
        return rank_program(engine, rank, ops, held, payloads, delivered[rank])

    engine.spawn_all(program)
    simulated = engine.run()
    return AlltoallRun(
        algorithm=algorithm.name,
        msg_size=msg_size,
        simulated_time=simulated,
        finish_times=engine.finish_times(),
        messages_sent=engine.messages_sent,
        bytes_sent=engine.bytes_sent,
        # Keyed by block id on the engine; by source rank in the result.
        results=[{block // n: p for block, p in got.items()} for got in delivered],
        trace=collector,
        setup_wall_time=setup_wall,
    )


def verify_alltoall(
    topology: DistGraphTopology, run: AlltoallRun, payload_fn: PayloadFn | None = None
) -> None:
    """Assert the alltoall post-condition: rank ``v`` received exactly block
    ``payload_fn(u, v)`` from every incoming neighbor ``u``."""
    if payload_fn is None:
        payload_fn = lambda src, dst: (src, dst)  # noqa: E731
    for v in range(topology.n):
        expected = set(topology.in_neighbors(v))
        got = set(run.results[v])
        if expected != got:
            raise AssertionError(
                f"[{run.algorithm}] rank {v}: missing={sorted(expected - got)}, "
                f"extra={sorted(got - expected)}"
            )
        for u in expected:
            if run.results[v][u] != payload_fn(u, v):
                raise AssertionError(
                    f"[{run.algorithm}] rank {v}: block from {u} is "
                    f"{run.results[v][u]!r}, expected {payload_fn(u, v)!r}"
                )
