"""Algorithm interface, registry, and execution context.

An algorithm separates *pattern creation* (:meth:`setup`, the work MPI does
once inside ``MPI_Dist_graph_create_adjacent``) from *operation*, executed
on every ``MPI_Neighbor_allgather`` call.  The paper measures both: Figs.
4-7 time the operation; Fig. 8 the setup.

A backend defines the operation once, as one op stream per rank
(:meth:`~NeighborhoodAllgatherAlgorithm.rank_ops`) that walks the plan
``setup()`` built.  Both execution paths read that stream:

* :meth:`~NeighborhoodAllgatherAlgorithm.program` pulls it lazily through
  one generic generator on the discrete-event engine, moving block ids as
  payloads and checking them as it goes;
* :meth:`~NeighborhoodAllgatherAlgorithm.build_schedule` materialises every
  rank's stream into the :class:`~repro.sim.schedule.Schedule` the fast path
  compiles.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass, field, replace
from typing import Any, Callable, ClassVar, Generator, Iterator

from repro.cluster.machine import Machine
from repro.sim.communicator import SimCommunicator
from repro.topology.graph import DistGraphTopology


@dataclass
class SetupStats:
    """Cost of pattern creation (the Fig. 8 quantities).

    ``protocol_messages`` counts control messages the setup would exchange
    on a real machine; ``simulated_time`` prices them through the machine's
    Hockney costs; ``wall_time`` is the Python wall-clock spent building.
    """

    protocol_messages: int = 0
    simulated_time: float = 0.0
    wall_time: float = 0.0
    extras: dict[str, Any] = field(default_factory=dict)


@dataclass
class ExecutionContext:
    """Everything a rank program needs for one allgather invocation.

    ``payloads[r]`` is rank r's send-buffer object (any Python object; the
    harness uses the rank id so block identity is checkable).  ``results[r]``
    collects what lands in rank r's receive buffer, keyed by source rank.
    ``msg_size`` is the byte size of each rank's block (``m`` in the paper);
    for the allgatherv variant, ``block_sizes`` overrides it per source rank
    (``msg_size`` then holds the maximum, for reporting).
    """

    topology: DistGraphTopology
    machine: Machine
    msg_size: int
    payloads: list[Any]
    results: list[dict[int, Any]]
    block_sizes: list[int] | None = None

    def size_of(self, src: int) -> int:
        """Byte size of rank ``src``'s block."""
        return self.msg_size if self.block_sizes is None else self.block_sizes[src]

    def sizes_of(self, blocks) -> int:
        """Total bytes of a sequence of source-rank block ids."""
        if self.block_sizes is None:
            return self.msg_size * len(blocks)
        return sum(self.block_sizes[src] for src in blocks)


class NeighborhoodAllgatherAlgorithm(abc.ABC):
    """A neighborhood-allgather implementation.

    Subclasses set :attr:`name`, build their plan in :meth:`_build` (run by
    :meth:`setup`), and emit each rank's op stream from :meth:`rank_ops`.
    """

    name: ClassVar[str] = "abstract"

    def __init__(self) -> None:
        self._topology: DistGraphTopology | None = None
        self._machine: Machine | None = None
        self.setup_stats: SetupStats | None = None
        self._schedule_cache: tuple | None = None

    # ------------------------------------------------------------- lifecycle
    def setup(self, topology: DistGraphTopology, machine: Machine) -> SetupStats:
        """Build the communication plan; idempotent for the same inputs."""
        if topology.n > machine.spec.n_ranks:
            raise ValueError(
                f"topology has {topology.n} ranks but machine only "
                f"{machine.spec.n_ranks}"
            )
        if self._topology is topology and self._machine is machine and self.setup_stats:
            return self.setup_stats
        self._topology = topology
        self._machine = machine
        self.setup_stats = self._build(topology, machine)
        return self.setup_stats

    @abc.abstractmethod
    def _build(self, topology: DistGraphTopology, machine: Machine) -> SetupStats:
        """Subclass hook: build internal plan, return its cost."""

    @abc.abstractmethod
    def rank_ops(self, ctx: ExecutionContext, rank: int) -> Iterator[tuple] | None:
        """Rank ``rank``'s op stream for one allgather call, or ``None``.

        ``None`` marks a rank the engine must not spawn (no events, no
        sequence number).  Otherwise the iterator yields, in the rank's
        program order:

        * ``("charge", nbytes)`` — a memcpy on the rank's clock;
        * ``("send", dst, nbytes, tag, blocks)`` — a non-blocking send of
          the source-rank block ids ``blocks`` (a tuple), ``nbytes`` of them;
        * ``("recv", src, tag, nbytes)`` — a non-blocking receive of a
          message expected to carry ``nbytes``;
        * ``("wait",)`` — waitall over every request posted since the last
          wait;
        * ``("deliver", blocks)`` — copy these blocks into the rank's receive
          buffer.

        Byte fields come from ``ctx.size_of``/``ctx.sizes_of`` only (never
        ``ctx.msg_size``), which is what lets :meth:`schedule_for` build in
        block counts.  ``deliver`` points are part of the algorithm: under
        fail-stop faults the blocks delivered before a crash decide the
        residual topology of the recovery round.
        """

    def program(self, comm: SimCommunicator, ctx: ExecutionContext) -> Generator | None:
        """The rank's simulator program: its :meth:`rank_ops` stream, run.

        Returns ``None`` when the stream is ``None``.  The generic program
        keeps the set of block ids the rank holds (its own, plus every
        received message's ``blocks``), sends each op's ``blocks`` tuple as
        the message payload, and at ``deliver`` sets
        ``results[src] = ctx.payloads[src]``.  It raises an
        :class:`AssertionError` naming the rank when a send carries a block
        the rank does not hold, a received message's size differs from its
        ``recv`` op, or a delivered block never arrived.
        """
        stream = self.rank_ops(ctx, comm.rank)
        if stream is None:
            return None
        return _run(comm, ctx, stream)

    def build_schedule(self, ctx: ExecutionContext):
        """Every rank's :meth:`rank_ops` stream, materialised as a
        :class:`~repro.sim.schedule.Schedule`.

        ``deliver`` ops become ``Schedule.deliveries``, in stream order; the
        other ops, unchanged, become ``Schedule.ops``.
        """
        from repro.sim.schedule import Schedule

        all_ops: list[list[tuple] | None] = []
        deliveries: list[list[int]] = []
        for rank in range(ctx.topology.n):
            stream = self.rank_ops(ctx, rank)
            if stream is None:
                all_ops.append(None)
                deliveries.append([])
                continue
            ops: list[tuple] = []
            delivered: list[int] = []
            for op in stream:
                if op[0] == "deliver":
                    delivered.extend(op[1])
                else:
                    ops.append(op)
            all_ops.append(ops)
            deliveries.append(delivered)
        return Schedule(ctx.topology.n, all_ops, deliveries)

    def schedule_for(self, ctx: ExecutionContext):
        """Memoized :meth:`build_schedule`, in block counts for uniform sizes.

        Backends size their ops only through ``ctx.size_of`` and
        ``ctx.sizes_of``, so a uniform-size schedule is linear in the block
        size: built once on a copy of ``ctx`` with ``msg_size=1``, its byte
        fields are block counts, and the schedule at ``m`` is that one
        priced with ``unit=m`` (see :func:`repro.sim.fastpath.execute_schedule`).
        One schedule per set-up ``(topology, machine)`` — pinned by
        :meth:`setup`'s own identity key — therefore serves every message
        size, and so does its compiled fast-path plan.  Allgatherv contexts
        keep raw byte counts (price them with ``unit=1``) and their
        ``block_sizes`` in the memo key.  Strong references to the keyed
        objects are held in the cache entry, so identity checks can never
        alias recycled ids.
        """
        sizes = None if ctx.block_sizes is None else list(ctx.block_sizes)
        cached = self._schedule_cache
        if (
            cached is not None
            and cached[0] is ctx.topology
            and cached[1] is ctx.machine
            and cached[2] == sizes
        ):
            return cached[3]
        build_ctx = ctx if sizes is not None else replace(ctx, msg_size=1)
        schedule = self.build_schedule(build_ctx)
        self._schedule_cache = (ctx.topology, ctx.machine, sizes, schedule)
        return schedule

    def replan(
        self,
        survivors: tuple[int, ...],
        delivered_state: list[dict[int, Any]],
    ) -> "NeighborhoodAllgatherAlgorithm":
        """ULFM-style recovery hook: a fresh instance for the shrunk run.

        After a fail-stop failure the runner rebuilds the communicator over
        ``survivors`` (original rank ids, ascending) and re-runs the
        collective over the *residual* topology — only the edges whose
        blocks ``delivered_state`` shows as not yet delivered.  This hook
        returns the algorithm instance to set up over that residual
        topology; the default clones the type with default parameters, and
        parameterized algorithms override it to carry their tuning across
        the replan.  The returned instance is ``setup()`` by the runner
        (recovery pays pattern-creation cost again, like a real
        ``MPI_Comm_shrink`` + re-negotiation).
        """
        return type(self)()

    # ---------------------------------------------------------------- helpers
    @property
    def is_setup(self) -> bool:
        return self.setup_stats is not None

    def require_setup(self) -> None:
        if not self.is_setup:
            raise RuntimeError(f"{self.name}: setup() must run before program()")

    def program_factory(self, ctx: ExecutionContext) -> Callable[[int], Callable]:
        """Adapter for :meth:`Engine.spawn_all`."""
        self.require_setup()

        def factory(rank: int):
            return lambda comm: self.program(comm, ctx)

        return factory

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        state = "ready" if self.is_setup else "unset"
        return f"{type(self).__name__}(name={self.name!r}, {state})"


def _run(comm: SimCommunicator, ctx: ExecutionContext, stream: Iterator[tuple]) -> Generator:
    """Run one rank's op stream on the engine (see :meth:`~NeighborhoodAllgatherAlgorithm.program`).

    Ops post straight into the engine, charging the call overhead and
    memcpys on the rank's clock as :class:`SimCommunicator` does.  Sends
    keep no request: a wait lists the receives only, with the latest send
    completion since the last wait as its floor.
    """
    rank = comm.rank
    engine = comm.engine
    send = engine.send
    post_recv = engine.post_recv
    waitall = engine.waitall_condition
    clock = engine.rank_now
    params = engine.machine.params
    overhead = params.call_overhead
    memcpy_beta = params.memcpy_beta
    results = ctx.results[rank]
    payloads = ctx.payloads
    held = {rank}
    # Receives and their expected sizes since the last wait, in parallel
    # lists: a container per receive would live until the wait, and
    # thousands of them alive at once make the garbage collector a large
    # share of a dense naive run.
    recv_reqs: list = []
    recv_sizes: list[int] = []
    floor = 0.0
    for op in stream:
        kind = op[0]
        if kind == "send":
            blocks = op[4]
            if not held.issuperset(blocks):
                raise AssertionError(
                    f"rank {rank}: send to {op[1]} (tag {op[3]}) carries "
                    f"block(s) {sorted(set(blocks) - held)} it does not hold"
                )
            clock[rank] += overhead
            done = send(rank, op[1], op[2], op[3], blocks).send_complete
            if done > floor:
                floor = done
        elif kind == "recv":
            clock[rank] += overhead
            recv_reqs.append(post_recv(rank, op[1], op[2]))
            recv_sizes.append(op[3])
        elif kind == "charge":
            nbytes = op[1]
            if nbytes < 0:
                raise ValueError(f"nbytes must be >= 0, got {nbytes}")
            clock[rank] += nbytes / memcpy_beta
        elif kind == "wait":
            yield waitall(recv_reqs, floor)
            floor = 0.0
            for req, nbytes in zip(recv_reqs, recv_sizes):
                if req.nbytes != nbytes:
                    raise AssertionError(
                        f"rank {rank}: message from {req.source} (tag {req.tag}) "
                        f"has {req.nbytes} bytes, expected {nbytes}"
                    )
                held.update(req.payload)
            recv_reqs = []
            recv_sizes = []
        else:  # deliver
            for src in op[1]:
                if src not in held:
                    raise AssertionError(
                        f"rank {rank}: delivers block {src}, which never arrived"
                    )
                results[src] = payloads[src]


#: The capability vocabulary.  Registration validates declared capabilities
#: against this set, so a typo ("shedule") fails at import time, not when a
#: bench silently skips the backend.  See docs/ARCHITECTURE.md ("the
#: algorithm zoo") for what each flag promises.
CAPABILITIES = frozenset({
    "replan",      # supports on_failure="shrink" over a residual topology
    "setup_free",  # zero pattern-creation cost; usable as a degrade target
    "oracle",      # enrolled as a mutual oracle in repro.verify fuzzing
    "bench",       # enrolled in the bench sweeps / figures / resilience grids
    "tunable",     # has a tuning grid (declared via ``tuning=``)
})

#: The registry-resolved degrade/fallback target: the algorithm every
#: ``fallback=`` / ``on_failure="degrade"`` path restarts with.  Its
#: registration must declare ``setup_free`` (checked in
#: :func:`register_algorithm`) — degrading to an algorithm that itself
#: needs a setup exchange would be circular.
SETUP_FREE_FALLBACK = "naive"


@dataclass(frozen=True)
class AlgorithmInfo:
    """Registry entry: an algorithm class plus its declared capabilities.

    ``bench_kwargs`` are the constructor arguments benches use for the
    single-variant grids (resilience, wallclock, smoke sweeps);
    ``tuning`` maps parameter name -> value grid for benches that sweep a
    family (fig5/fig6 run every Common Neighbor ``k``); ``label`` is the
    short column/record prefix used in reports (``cn`` -> ``cn4_time``).
    """

    name: str
    cls: type[NeighborhoodAllgatherAlgorithm]
    capabilities: frozenset[str]
    label: str
    bench_kwargs: tuple[tuple[str, Any], ...] = ()
    tuning: tuple[tuple[str, tuple[Any, ...]], ...] = ()

    def has(self, *caps: str) -> bool:
        return all(c in self.capabilities for c in caps)

    def tuning_values(self, param: str) -> tuple[Any, ...]:
        for p, values in self.tuning:
            if p == param:
                return values
        raise KeyError(f"{self.name!r} declares no tuning grid for {param!r}")


_REGISTRY: dict[str, AlgorithmInfo] = {}


def register_algorithm(
    cls: type[NeighborhoodAllgatherAlgorithm] | None = None,
    *,
    capabilities: frozenset[str] | tuple[str, ...] = (),
    label: str | None = None,
    bench_kwargs: tuple[tuple[str, Any], ...] = (),
    tuning: tuple[tuple[str, tuple[Any, ...]], ...] = (),
):
    """Class decorator: register under ``cls.name`` with declared capabilities.

    Usable bare (``@register_algorithm``, no capabilities — the backend is
    lookup-only) or with arguments.  Declarations are validated here so a
    broken registration fails at import time: unknown capability names,
    ``replan`` without the matching method override, ``tunable``
    without a grid (or a grid without ``tunable``), ``bench_kwargs`` the
    constructor rejects, and a :data:`SETUP_FREE_FALLBACK` registration
    that is not actually setup-free are all errors.
    """

    def _register(cls: type[NeighborhoodAllgatherAlgorithm]):
        if not cls.name or cls.name == "abstract":
            raise ValueError(f"{cls.__name__} must define a unique non-abstract name")
        if cls.name in _REGISTRY:
            raise ValueError(f"algorithm {cls.name!r} already registered")
        caps = frozenset(capabilities)
        unknown = caps - CAPABILITIES
        if unknown:
            raise ValueError(
                f"{cls.name!r} declares unknown capabilities {sorted(unknown)}; "
                f"known: {sorted(CAPABILITIES)}"
            )
        if "replan" in caps and cls.replan is NeighborhoodAllgatherAlgorithm.replan:
            raise ValueError(
                f"{cls.name!r} declares 'replan' but does not override replan"
            )
        if ("tunable" in caps) != bool(tuning):
            raise ValueError(
                f"{cls.name!r}: 'tunable' capability and a tuning= grid "
                "must be declared together"
            )
        if cls.name == SETUP_FREE_FALLBACK and "setup_free" not in caps:
            raise ValueError(
                f"{cls.name!r} is the SETUP_FREE_FALLBACK and must declare 'setup_free'"
            )
        if "bench" in caps:
            cls(**dict(bench_kwargs))  # bench_kwargs must construct cleanly
        _REGISTRY[cls.name] = AlgorithmInfo(
            name=cls.name,
            cls=cls,
            capabilities=caps,
            label=label or cls.name,
            bench_kwargs=tuple(bench_kwargs),
            tuning=tuple((p, tuple(vs)) for p, vs in tuning),
        )
        return cls

    if cls is not None:
        return _register(cls)
    return _register


def algorithm_info(name: str) -> AlgorithmInfo:
    """The registry entry for ``name`` (KeyError listing alternatives)."""
    try:
        return _REGISTRY[name]
    except KeyError:
        raise KeyError(f"unknown algorithm {name!r}; available: {sorted(_REGISTRY)}") from None


def list_algorithms(requires: frozenset[str] | set[str] | tuple[str, ...] = ()) -> tuple[AlgorithmInfo, ...]:
    """Registered algorithms declaring every capability in ``requires``.

    Returned in registration order (stable across runs — import order of
    :mod:`repro.collectives` fixes it), so benches and reports keep their
    historical row order when queried instead of hardcoded.
    """
    wanted = frozenset(requires)
    unknown = wanted - CAPABILITIES
    if unknown:
        raise ValueError(
            f"unknown capabilities {sorted(unknown)}; known: {sorted(CAPABILITIES)}"
        )
    return tuple(info for info in _REGISTRY.values() if wanted <= info.capabilities)


def get_algorithm(name: str, **kwargs) -> NeighborhoodAllgatherAlgorithm:
    """Instantiate a registered algorithm by name (kwargs to its __init__)."""
    return algorithm_info(name).cls(**kwargs)


def available_algorithms() -> tuple[str, ...]:
    return tuple(sorted(_REGISTRY))
