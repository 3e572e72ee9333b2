"""Algorithm interface, registry, and execution context.

An algorithm separates *pattern creation* (:meth:`setup`, the work MPI does
once inside ``MPI_Dist_graph_create_adjacent``) from *operation*
(:meth:`program`, executed on every ``MPI_Neighbor_allgather`` call).  The
paper measures both: Figs. 4-7 time the operation; Fig. 8 the setup.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass, field, replace
from typing import Any, Callable, ClassVar, Generator

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

    Subclasses set :attr:`name`, build their plan in :meth:`setup`, and
    emit per-rank simulator programs from :meth:`program`.
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
    def program(self, comm: SimCommunicator, ctx: ExecutionContext) -> Generator | None:
        """The rank's simulator program for one allgather call.

        May return ``None`` when the rank has nothing to do.
        """

    def build_schedule(self, ctx: ExecutionContext):
        """Static op schedule equivalent to :meth:`program`, or ``None``.

        Algorithms whose programs are pure plan interpreters (all three
        shipped ones) override this to emit a
        :class:`~repro.sim.schedule.Schedule` describing exactly the ops
        their generators would perform, enabling the engine-free fast path
        (``sim_mode="auto"``/``"analytic"``).  Op byte fields must come from
        ``ctx.size_of``/``ctx.sizes_of`` only (never ``ctx.msg_size``), which
        is what lets :meth:`schedule_for` build in block counts.  The
        default ``None`` means "no static schedule available" and forces
        the discrete-event path.
        """
        return None

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


#: The capability vocabulary.  Registration validates declared capabilities
#: against this set, so a typo ("shedule") fails at import time, not when a
#: bench silently skips the backend.  See docs/ARCHITECTURE.md ("the
#: algorithm zoo") for what each flag promises.
CAPABILITIES = frozenset({
    "schedule",    # exports a static Schedule (overrides build_schedule)
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
    ``schedule``/``replan`` without the matching method override, ``tunable``
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
        base = NeighborhoodAllgatherAlgorithm
        if "schedule" in caps and cls.build_schedule is base.build_schedule:
            raise ValueError(
                f"{cls.name!r} declares 'schedule' but does not override build_schedule"
            )
        if "replan" in caps and cls.replan is base.replan:
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
