"""Execution harness: run one neighborhood allgather on the simulator.

This is the reproduction's equivalent of an OSU-style micro-benchmark
iteration: spawn every rank's program, run the event loop, return the
simulated collective latency (makespan over ranks) plus traces and the
received blocks for verification.

:func:`run_allgather` sets the algorithm up (swapping in the requested
fallback when a fault plan would starve its setup), then takes one of two
paths: an eligible ``sim_mode="auto"`` run replays the static schedule on
the fast path, and every other run goes through one engine loop,
:func:`_run_engine_rounds`, whose round 0 is the plain run and whose later
rounds, if any, are ULFM-style recoveries from crashed ranks.  Either
path's result is verified in one place, at the end of
:func:`run_allgather`.
"""

from __future__ import annotations

import dataclasses
import operator
import time
from dataclasses import dataclass, field
from typing import Any

from repro.cluster.machine import Machine
from repro.collectives.base import (
    SETUP_FREE_FALLBACK,
    ExecutionContext,
    NeighborhoodAllgatherAlgorithm,
    SetupStats,
    algorithm_info,
    get_algorithm,
)
from repro.sim.engine import Engine, RankFailedError
from repro.sim.fastpath import execute_schedule
from repro.sim.faults import FaultInjector, FaultPlan
from repro.sim.tracing import TraceCollector
from repro.topology.graph import DistGraphTopology
from repro.utils.sizes import parse_size


class VerificationError(AssertionError):
    """The MPI allgather post-condition failed, with structured detail.

    Subclasses :class:`AssertionError` so legacy ``pytest.raises`` /
    ``except AssertionError`` call sites keep working, but carries the
    violation as data so the :mod:`repro.verify` fuzzer (and any other
    machine consumer) can classify, minimize, and report failures without
    parsing message strings.

    Attributes
    ----------
    algorithm:
        Name of the algorithm whose run failed verification.
    rank:
        The receiving rank whose buffer is wrong.
    missing, extra:
        For neighbor-set violations: sorted source ranks whose block never
        arrived / arrived without a topology edge (empty tuples otherwise).
    neighbor, got, expected:
        For payload violations: the source rank whose block carries the
        wrong object, the received payload, and the expected payload
        (``None`` for neighbor-set violations).
    """

    def __init__(
        self,
        message: str,
        *,
        algorithm: str,
        rank: int,
        missing: tuple[int, ...] = (),
        extra: tuple[int, ...] = (),
        neighbor: int | None = None,
        got: Any = None,
        expected: Any = None,
    ) -> None:
        super().__init__(message)
        self.algorithm = algorithm
        self.rank = rank
        self.missing = tuple(missing)
        self.extra = tuple(extra)
        self.neighbor = neighbor
        self.got = got
        self.expected = expected

    @property
    def kind(self) -> str:
        """``"neighbor_set"`` or ``"payload"`` — which post-condition broke."""
        return "payload" if self.neighbor is not None else "neighbor_set"

    def as_dict(self) -> dict[str, Any]:
        """JSON-safe summary (embedded in fuzzer repro files)."""
        return {
            "kind": self.kind,
            "algorithm": self.algorithm,
            "rank": self.rank,
            "missing": list(self.missing),
            "extra": list(self.extra),
            "neighbor": self.neighbor,
            "got": repr(self.got) if self.got is not None else None,
            "expected": repr(self.expected) if self.expected is not None else None,
            "message": str(self),
        }


@dataclass(frozen=True)
class RunOptions:
    """Execution options for one simulated collective.

    This is the single carrier for everything that used to sprawl across
    :func:`run_allgather`'s keyword surface (``trace``, ``noise_seed``,
    ``fault_plan``, ``fallback``, ``max_sim_time``, ``max_events``); it is
    also embedded verbatim in :class:`repro.exec.RunSpec`, so one object
    describes a run identically for direct calls, the sweep orchestrator,
    and the result cache.

    Attributes
    ----------
    trace:
        Collect a per-message :class:`~repro.sim.tracing.TraceCollector`
        (and resource utilization) on the run.
    noise_seed:
        Seed for machine-level noise (only meaningful on machines with
        ``jitter > 0``).
    fault_plan:
        A seeded :class:`~repro.sim.faults.FaultPlan` injecting link
        degradation, stragglers, and message loss.
    fallback:
        Graceful degradation: registered algorithm to swap in when the
        requested algorithm's setup cannot complete under ``fault_plan``.
    max_sim_time, max_events:
        Engine watchdog budgets; exceeding either raises
        :class:`~repro.sim.engine.SimTimeoutError`.
    verify:
        Assert the MPI post-condition (:func:`verify_allgather`) before
        returning — used by orchestrated sweeps, where the caller never
        sees the full (non-slim) result buffers.
    sim_mode:
        Execution path selection.  ``"des"`` (default) always runs the
        discrete-event engine.  ``"auto"`` replays the algorithm's static
        schedule exactly through :mod:`repro.sim.fastpath` — bit-identical
        results, typically an order of magnitude faster — whenever the run
        is eligible (no fault plan, no tracing, jitter-free machine; every
        algorithm's op streams materialise as a schedule), falling back to
        the engine otherwise.  A schedule that deadlocks raises the
        engine's :class:`~repro.sim.engine.DeadlockError` on either path.
    on_failure:
        ULFM-style policy for fail-stop failures (``RankCrash`` faults that
        leave survivors stalled).  ``"abort"`` (default) propagates the
        engine's :class:`~repro.sim.engine.RankFailedError` — the
        ``MPI_ERRORS_ABORT`` analogue.  ``"shrink"`` and ``"degrade"``
        rebuild the communicator over the survivors and run the residual
        topology (already-delivered blocks are not resent): ``"shrink"``
        re-plans it with the same algorithm, ``"degrade"`` runs it with the
        setup-free naive algorithm.  Both recovery modes report crashed
        ranks in :attr:`AllgatherRun.missing_ranks` and charge detection +
        replan cost in simulated time.
    """

    trace: bool = False
    noise_seed: int = 0
    fault_plan: FaultPlan | None = None
    fallback: str | None = None
    max_sim_time: float | None = None
    max_events: int | None = None
    verify: bool = False
    sim_mode: str = "des"
    on_failure: str = "abort"

    def __post_init__(self) -> None:
        if self.sim_mode not in ("des", "auto"):
            raise ValueError(
                f"sim_mode must be 'des' or 'auto', got {self.sim_mode!r}"
            )
        if self.on_failure not in ("abort", "shrink", "degrade"):
            raise ValueError(
                f"on_failure must be 'abort', 'shrink' or 'degrade', "
                f"got {self.on_failure!r}"
            )
        if self.fallback is not None:
            try:
                algorithm_info(self.fallback)
            except KeyError as exc:
                raise ValueError(f"fallback: {exc.args[0]}") from None

    def canonical(self) -> dict:
        """JSON-safe dict with a stable field order (for spec digests).

        ``sim_mode`` is emitted only when non-default, so every digest
        computed before the field existed stays valid (same pattern as
        ``TopologySpec.self_loops``); any non-``"des"`` mode changes the
        digest, keeping the content-addressed cache sound across paths.
        """
        data = {
            "trace": self.trace,
            "noise_seed": self.noise_seed,
            "fault_plan": (
                self.fault_plan.to_dict() if self.fault_plan is not None else None
            ),
            "fallback": self.fallback,
            "max_sim_time": self.max_sim_time,
            "max_events": self.max_events,
            "verify": self.verify,
        }
        if self.sim_mode != "des":
            data["sim_mode"] = self.sim_mode
        # Same stability pattern: "abort" (the pre-recovery behavior) is
        # omitted so pre-existing digests stay valid.
        if self.on_failure != "abort":
            data["on_failure"] = self.on_failure
        return data

    @classmethod
    def from_dict(cls, data: dict) -> "RunOptions":
        """Inverse of :meth:`canonical` (used by fuzzer repro files)."""
        plan = data.get("fault_plan")
        return cls(
            trace=data.get("trace", False),
            noise_seed=data.get("noise_seed", 0),
            fault_plan=FaultPlan.from_dict(plan) if plan is not None else None,
            fallback=data.get("fallback"),
            max_sim_time=data.get("max_sim_time"),
            max_events=data.get("max_events"),
            verify=data.get("verify", False),
            sim_mode=data.get("sim_mode", "des"),
            on_failure=data.get("on_failure", "abort"),
        )


#: Shared default options (all fields at their defaults).
DEFAULT_OPTIONS = RunOptions()


@dataclass
class AllgatherRun:
    """Outcome of one simulated ``MPI_Neighbor_allgather(v)``."""

    algorithm: str
    msg_size: int
    simulated_time: float
    finish_times: dict[int, float]
    messages_sent: int
    bytes_sent: int
    setup_stats: SetupStats
    results: list[dict[int, Any]] = field(repr=False, default_factory=list)
    trace: TraceCollector | None = field(repr=False, default=None)
    wall_time: float = 0.0
    block_sizes: list[int] | None = field(repr=False, default=None)
    #: busy fractions per resource family over the whole run (trace=True
    #: only): each resource's busy time summed over every round, over
    #: ``simulated_time``, with ports keyed by original rank ids
    utilization: dict | None = field(repr=False, default=None)
    #: fault-injection counters {drops, retransmissions, messages_lost}
    #: (fault_plan runs only)
    fault_stats: dict[str, int] | None = None
    #: algorithm originally requested when graceful degradation swapped it
    requested_algorithm: str | None = None
    #: per-link-class conservation aggregates (TraceCollector.summary();
    #: trace=True runs only).  Plain JSON data, so — unlike ``trace`` — it
    #: survives slim(), worker transfer, and cache round-trips, keeping the
    #: repro.verify conservation checks runnable on cached results.
    trace_summary: dict[str, dict[str, int]] | None = None
    #: which execution path produced this run: "des" (discrete-event
    #: engine) or "fastpath" (bit-identical schedule replay).  Lets tests
    #: and sweeps distinguish a genuine fast-path run from an auto-mode
    #: fallback to the engine.
    sim_path: str = "des"
    #: ranks whose payloads are missing from the collective because they
    #: crashed (fail-stop faults), ascending original ids; empty for
    #: crash-free runs.  Survivors' buffers verify under
    #: ``verify_allgather(allow_missing=run.missing_ranks)``.
    missing_ranks: tuple[int, ...] = ()
    #: ULFM-style recovery summary of a "shrink" or "degrade" run that lost
    #: ranks: {"mode", "rounds", "recovered_with", "replan_messages",
    #: "time_to_recover"}, with rounds 0 when no crash starved a survivor;
    #: None under "abort" and for runs that lost no rank.
    recovery: dict[str, Any] | None = None
    #: the algorithm ``algorithm="auto"`` resolved to (the adaptive
    #: selector's pick, see :mod:`repro.select`); None for runs that named
    #: their algorithm directly.
    selected_algorithm: str | None = None

    @property
    def fallback_used(self) -> bool:
        """True when the requested algorithm's setup could not complete
        under the fault plan and the run degraded to ``fallback``."""
        return self.requested_algorithm is not None

    def slim(self) -> "AllgatherRun":
        """A copy without the per-rank result buffers and the trace.

        ``results`` holds one dict per rank of arbitrary payload objects and
        ``trace`` a :class:`~repro.sim.tracing.TraceCollector` closed over
        live simulator state — together they make a run unpicklable (or
        enormous) for cross-process transfer and content-addressed caching.
        Everything else (timings, counters, setup stats, fault stats, and
        the ``trace_summary`` aggregates) is preserved bit-for-bit.
        """
        return dataclasses.replace(self, results=[], trace=None)


def run_allgather(
    algorithm: str | NeighborhoodAllgatherAlgorithm,
    topology: DistGraphTopology,
    machine: Machine,
    msg_size: int | str | list[int | str] | tuple,
    *,
    options: RunOptions | None = None,
    payloads: list[Any] | None = None,
    **unexpected_kwargs,
) -> AllgatherRun:
    """Simulate one neighborhood allgather and return its latency and data.

    Parameters
    ----------
    algorithm:
        A registered algorithm name (see
        :func:`~repro.collectives.base.available_algorithms`) or a
        (possibly pre-setup) instance.  Passing an instance across calls
        reuses its communication pattern — message size sweeps only pay
        setup once, as a real MPI application would.  Algorithm
        constructor arguments go through
        :func:`~repro.collectives.base.get_algorithm` (or a
        :class:`repro.exec.RunSpec`), not through this function.
    topology, machine, msg_size:
        The virtual topology, the machine model, and the block size ``m``
        in bytes (int or string like ``"64KB"``).  Passing a list/tuple of
        ``topology.n`` sizes selects allgatherv semantics (per-source
        block sizes); see :func:`run_allgatherv`.
    options:
        A :class:`RunOptions` carrying tracing, noise, fault-injection,
        graceful-degradation, watchdog, and verification settings; defaults
        to :data:`DEFAULT_OPTIONS`.
    payloads:
        Optional per-rank payload objects; defaults to the rank id, which
        makes delivered-block identity checkable by :func:`verify_allgather`.

    Any other keyword is rejected: the pre-``RunOptions`` bare keywords
    (removed after their deprecation cycle) and algorithm constructor
    arguments both raise ``ValueError`` pointing at the supported spelling.
    """
    if unexpected_kwargs:
        raise ValueError(
            f"run_allgather got unexpected keyword(s) {sorted(unexpected_kwargs)}: "
            "pass execution options as options=RunOptions(...) and build "
            "algorithm instances with get_algorithm(name, **kwargs) "
            "(or use repro.exec.RunSpec)"
        )
    opts = options if options is not None else DEFAULT_OPTIONS
    if isinstance(algorithm, str) and algorithm == "auto":
        # Adaptive selection: resolve against the active decision table
        # (deferred import — repro.select depends on this module).  The
        # selection's instance is already set up when a fault plan forced
        # a survivability walk, so the recursive call pays setup once.
        from repro.select.selector import select

        selection = select(topology, machine, msg_size, opts)
        run = run_allgather(
            selection.instance, topology, machine, msg_size,
            options=opts, payloads=payloads,
        )
        run.selected_algorithm = selection.algorithm
        return run
    if isinstance(algorithm, str):
        algorithm = get_algorithm(algorithm)

    block_sizes: list[int] | None = None
    if isinstance(msg_size, (list, tuple)):
        block_sizes = [parse_size(s) for s in msg_size]
        if len(block_sizes) != topology.n:
            raise ValueError(
                f"block_sizes has {len(block_sizes)} entries for {topology.n} ranks"
            )
        msg_size = max(block_sizes, default=0)
    else:
        msg_size = parse_size(msg_size)

    requested = algorithm
    algorithm, setup_stats = _set_up(
        algorithm, topology, machine, opts.fault_plan, opts.fallback
    )
    requested_algorithm = requested.name if algorithm is not requested else None

    if payloads is None:
        payloads = list(range(topology.n))
    elif len(payloads) != topology.n:
        raise ValueError(f"payloads has {len(payloads)} entries for {topology.n} ranks")

    ctx = ExecutionContext(
        topology=topology,
        machine=machine,
        msg_size=msg_size,
        payloads=payloads,
        results=[{} for _ in range(topology.n)],
        block_sizes=block_sizes,
    )

    # Hybrid fast path: replay the algorithm's static schedule instead of
    # running the engine.  Eligibility is conservative — any feature the
    # replay does not model (fault injection, tracing, machine jitter)
    # falls back to the DES, so "auto" never changes results.
    if (
        opts.sim_mode != "des"
        and opts.fault_plan is None
        and not opts.trace
        and machine.params.jitter == 0
    ):
        wall_start = time.perf_counter()
        schedule = algorithm.schedule_for(ctx)
        # A uniform-size schedule counts blocks (see schedule_for), so it
        # is priced per msg_size.
        outcome = execute_schedule(
            schedule,
            machine,
            unit=msg_size if block_sizes is None else 1,
            max_sim_time=opts.max_sim_time,
            max_events=opts.max_events,
        )
        results = ctx.results
        get_payload = payloads.__getitem__
        for dst, srcs in enumerate(schedule.deliveries):
            if srcs:
                results[dst] = dict(zip(srcs, map(get_payload, srcs)))
        run = AllgatherRun(
            algorithm=algorithm.name,
            msg_size=msg_size,
            simulated_time=outcome.simulated_time,
            finish_times=outcome.finish_times,
            messages_sent=outcome.messages_sent,
            bytes_sent=outcome.bytes_sent,
            setup_stats=setup_stats,
            results=results,
            wall_time=time.perf_counter() - wall_start,
            block_sizes=block_sizes,
            sim_path="fastpath",
        )
    else:
        run = _run_engine_rounds(algorithm, ctx, opts, setup_stats, requested_algorithm)
    if opts.verify:
        verify_allgather(topology, run, expected_payloads=payloads,
                         allow_missing=run.missing_ranks)
    return run


def _set_up(
    algorithm: NeighborhoodAllgatherAlgorithm,
    topology: DistGraphTopology,
    machine: Machine,
    plan: FaultPlan | None,
    fallback: str | None,
) -> tuple[NeighborhoodAllgatherAlgorithm, SetupStats]:
    """Set ``algorithm`` up, or ``fallback`` in its place when ``plan``'s
    loss would starve ``algorithm``'s setup negotiation.

    Returns the algorithm that will run and its setup stats.  Raises
    ``RuntimeError`` when the fallback's setup cannot complete either
    (the setup-free naive algorithm always can).
    """
    stats = algorithm.setup(topology, machine)
    if (
        plan is None
        or fallback is None
        or fallback == algorithm.name
        or plan.setup_survivable(stats.protocol_messages)
    ):
        return algorithm, stats
    algorithm = get_algorithm(fallback)
    stats = algorithm.setup(topology, machine)
    if not plan.setup_survivable(stats.protocol_messages):
        raise RuntimeError(
            f"fallback algorithm {fallback!r} setup also cannot "
            f"complete under the fault plan ({plan.describe()})"
        )
    return algorithm, stats


def _residual_topology(
    topology: DistGraphTopology,
    new_map: list[int],
    merged: list[dict[int, Any]],
) -> DistGraphTopology:
    """The shrunk communicator's remaining work as a topology.

    ``new_map[i]`` is the original id of shrunk rank ``i``.  An edge
    ``u -> v`` of the original topology survives iff both endpoints are
    alive and ``u``'s block has not already landed in ``v``'s buffer
    (``merged``, keyed by original ids) — so a recovery round resends
    nothing that was delivered before the failure.
    """
    remap = {orig: new for new, orig in enumerate(new_map)}
    out_lists = []
    for orig_u in new_map:
        out_lists.append([
            remap[orig_v]
            for orig_v in topology.out_neighbors(orig_u)
            if orig_v in remap and orig_u not in merged[orig_v]
        ])
    return DistGraphTopology(len(new_map), out_lists)


def _run_engine_rounds(
    algorithm: NeighborhoodAllgatherAlgorithm,
    ctx: ExecutionContext,
    opts: RunOptions,
    setup_stats: SetupStats,
    requested_algorithm: str | None,
) -> AllgatherRun:
    """Run the collective on the discrete-event engine, one round per
    communicator (ULFM-style recovery between rounds).

    Round 0 runs ``algorithm`` over the full communicator and writes
    straight into ``ctx.results``, which become the run's buffers; a run
    that no crash stalls ends there.  On a
    :class:`~repro.sim.engine.RankFailedError`, ``on_failure="abort"``
    re-raises it.  ``shrink`` and ``degrade`` charge the detection time,
    compact the survivors into a shrunk communicator (rank
    ``survivors[i]`` becomes rank ``i`` — relabeling, as
    ``MPI_Comm_shrink`` does; the machine placement of relabeled ranks is
    an accepted model approximation), build the residual topology
    (delivered blocks are never resent), re-plan over it, charge the
    replan's setup negotiation in simulated time, and run the next round
    under the shrunk fault plan, merging its deliveries back under the
    original rank ids.  ``shrink`` keeps the algorithm and its constructor
    arguments (via its ``replan()``); ``degrade`` switches to setup-free
    naive; either drops to naive when the shrunk plan would starve the
    replanned setup.  One trace collector spans all rounds, so
    conservation laws hold over the whole recovered run, and a traced
    run's utilization sums every round's busy times (ports mapped back to
    original ids) over the whole run's simulated time.  Every round's
    engine is closed when its run ends, however it ends.
    """
    topology, machine = ctx.topology, ctx.machine
    mode = opts.on_failure
    trace = opts.trace
    collector = TraceCollector() if trace else None
    wall_start = time.perf_counter()

    plan = opts.fault_plan
    rank_map = list(range(topology.n))        # current rank -> original rank
    merged = ctx.results                      # keyed by original ids
    missing: list[int] = []
    fault_totals: dict[str, int] = {}
    current_alg = algorithm
    round_ctx = ctx
    offset = 0.0          # sim time consumed by failed rounds + detection + replans
    rounds = 0
    replan_messages = 0
    messages = total_bytes = 0
    busy: dict[str, dict] = {}  # trace only: busy seconds, summed over rounds

    while True:
        injector = FaultInjector(plan) if plan is not None else None
        engine = Engine(
            n_ranks=round_ctx.topology.n,
            machine=machine,
            trace=collector,
            noise_seed=opts.noise_seed,
            faults=injector,
            max_sim_time=opts.max_sim_time,
            max_events=opts.max_events,
        )
        engine.spawn_all(lambda rank: current_alg.program(engine, rank, round_ctx))
        failure: RankFailedError | None = None
        try:
            round_make = engine.run()
        except RankFailedError as exc:
            if mode == "abort":
                raise
            # Kept without its traceback, which holds this frame (and so
            # `failure` itself): a cycle that would keep the engine alive
            # past the round.
            failure = exc.with_traceback(None)
        finally:
            engine.close()  # a run that raised leaves programs suspended
        if round_ctx is not ctx:
            # Merge whatever landed this round (partial on failure),
            # remapping buffer owners and block sources to original ids.
            for r_cur, received in enumerate(round_ctx.results):
                dst = merged[rank_map[r_cur]]
                for src_cur, payload in received.items():
                    dst[rank_map[src_cur]] = payload
        messages += engine.messages_sent
        total_bytes += engine.bytes_sent
        if trace:
            for name, family in engine.fabric.busy().items():
                total = busy.setdefault(name, {})
                ports = name in ("send_ports", "recv_ports")
                for key, b in family.items():
                    if ports:  # keyed by the round's rank ids
                        key = rank_map[key]
                    total[key] = total.get(key, 0.0) + b
        if injector is not None:
            for key, value in injector.stats().items():
                fault_totals[key] = fault_totals.get(key, 0) + value

        if failure is None:
            # A crash that never starved a survivor (the dead rank had
            # nothing left to contribute) ends the round normally; the
            # dead rank is still a missing participant.
            missing.extend(rank_map[r] for r in engine.crashed_ranks)
            simulated = offset + round_make
            finish_times = {
                rank_map[r]: offset + t for r, t in engine.finish_times().items()
            }
            break

        rounds += 1
        missing.extend(rank_map[r] for r in failure.failed_ranks)
        if rounds > len(opts.fault_plan.crashes):
            raise failure  # unreachable: every failed round kills >= 1 rank
        offset += failure.detection_time
        survivors_cur = list(failure.survivors)
        if not survivors_cur:
            simulated = offset
            finish_times = {}
            break
        new_map = [rank_map[r] for r in survivors_cur]
        current_topology = _residual_topology(topology, new_map, merged)
        plan = plan.shrink(survivors_cur, failure.detection_time)
        rank_map = new_map
        if mode == "degrade":
            next_alg = get_algorithm(SETUP_FREE_FALLBACK)
        else:
            next_alg = current_alg.replan()
        current_alg, replan_stats = _set_up(
            next_alg, current_topology, machine, plan, SETUP_FREE_FALLBACK
        )
        replan_messages += replan_stats.protocol_messages
        offset += replan_stats.simulated_time
        round_ctx = ExecutionContext(
            topology=current_topology,
            machine=machine,
            msg_size=ctx.msg_size,
            payloads=[ctx.payloads[orig] for orig in rank_map],
            results=[{} for _ in rank_map],
            block_sizes=(None if ctx.block_sizes is None
                         else [ctx.block_sizes[orig] for orig in rank_map]),
        )

    missing_ranks = tuple(sorted(set(missing)))
    utilization = (
        {name: {k: b / simulated for k, b in family.items()} for name, family in busy.items()}
        if trace and simulated > 0 else None
    )
    return AllgatherRun(
        algorithm=algorithm.name,
        msg_size=ctx.msg_size,
        simulated_time=simulated,
        finish_times=finish_times,
        messages_sent=messages,
        bytes_sent=total_bytes,
        setup_stats=setup_stats,
        results=merged,
        trace=collector,
        wall_time=time.perf_counter() - wall_start,
        block_sizes=ctx.block_sizes,
        utilization=utilization,
        fault_stats=fault_totals or None,
        requested_algorithm=requested_algorithm,
        trace_summary=collector.summary() if collector is not None else None,
        missing_ranks=missing_ranks,
        # "abort" never recovers, even when a crash starved no survivor.
        recovery=(
            {
                "mode": mode,
                "rounds": rounds,
                "recovered_with": current_alg.name,
                "replan_messages": replan_messages,
                "time_to_recover": offset,
            }
            if missing_ranks and mode != "abort" else None
        ),
    )


def load_imbalance(run: AllgatherRun) -> float:
    """Per-rank completion-time imbalance: ``max / mean`` of finish times.

    1.0 means perfectly balanced; the paper claims the distance-halving
    offloading "decreases the load imbalance among the ranks" relative to
    the naive algorithm, where high-degree ranks finish far later than the
    rest.
    """
    times = list(run.finish_times.values())
    if not times:
        return 1.0
    mean = sum(times) / len(times)
    if mean == 0:
        return 1.0
    return max(times) / mean


def run_allgatherv(
    algorithm: str | NeighborhoodAllgatherAlgorithm,
    topology: DistGraphTopology,
    machine: Machine,
    block_sizes: list[int | str],
    *,
    options: RunOptions | None = None,
    payloads: list[Any] | None = None,
    **unexpected_kwargs,
) -> AllgatherRun:
    """``MPI_Neighbor_allgatherv``: per-rank block sizes.

    Sugar over :func:`run_allgather` with a size list; every algorithm
    handles variable blocks natively (buffer arithmetic is byte-accurate).
    Any other keyword is passed on to :func:`run_allgather`, which rejects
    it with a ``ValueError``.
    """
    return run_allgather(
        algorithm, topology, machine, list(block_sizes),
        options=options, payloads=payloads, **unexpected_kwargs,
    )


def verify_allgather(
    topology: DistGraphTopology,
    run: AllgatherRun,
    expected_payloads: list[Any] | None = None,
    allow_missing: tuple[int, ...] | set[int] = (),
) -> None:
    """Assert the MPI post-condition: every rank received exactly the blocks
    of its incoming neighbors, each carrying the payload its source sent.

    ``expected_payloads[r]`` is what rank ``r`` was expected to contribute;
    it defaults to the rank id, matching :func:`run_allgather`'s default
    payloads.  Pass the same ``payloads`` list given to the run to verify
    non-default-payload executions.

    ``allow_missing`` relaxes the post-condition for fail-stop recovery
    (pass :attr:`AllgatherRun.missing_ranks`): a listed rank's own buffer
    is not checked at all (it died mid-collective), and its block is
    *optional* in survivors' buffers — present if it was delivered before
    the crash, absent otherwise.  Every present block, crashed source or
    not, must still ride a topology edge and carry the right payload.

    Raises :class:`VerificationError` (an :class:`AssertionError` subclass
    carrying the violating (rank, neighbor, got, expected) as data) on any
    violation.
    """
    if expected_payloads is not None and len(expected_payloads) != topology.n:
        raise ValueError(
            f"expected_payloads has {len(expected_payloads)} entries for "
            f"{topology.n} ranks"
        )
    allow = set(allow_missing)
    for v in range(topology.n):
        if v in allow:
            continue
        got = run.results[v]
        in_nbrs = topology.in_neighbors(v)
        # C-level checks first; the set arithmetic and the payload loop
        # below run only on a rank they may have to report.
        if len(got) != len(in_nbrs) or not all(map(got.__contains__, in_nbrs)):
            expected = set(in_nbrs)
            missing = expected - set(got) - allow
            extra = set(got) - expected
            if missing or extra:
                raise VerificationError(
                    f"[{run.algorithm}] rank {v}: missing blocks from {sorted(missing)}, "
                    f"unexpected blocks from {sorted(extra)}",
                    algorithm=run.algorithm,
                    rank=v,
                    missing=tuple(sorted(missing)),
                    extra=tuple(sorted(extra)),
                )
        wanted = got if expected_payloads is None else map(expected_payloads.__getitem__, got)
        if any(map(operator.ne, got.values(), wanted)):
            for src, payload in got.items():
                want = src if expected_payloads is None else expected_payloads[src]
                if payload != want:
                    raise VerificationError(
                        f"[{run.algorithm}] rank {v}: block from {src} carries wrong "
                        f"payload {payload!r} (expected {want!r})",
                        algorithm=run.algorithm,
                        rank=v,
                        neighbor=src,
                        got=payload,
                        expected=want,
                    )
