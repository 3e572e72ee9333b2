"""Algorithm interface, registry, and execution context.

An algorithm separates *pattern creation* (:meth:`setup`, the work MPI does
once inside ``MPI_Dist_graph_create_adjacent``) from *operation*, executed
on every ``MPI_Neighbor_allgather`` call.  The paper measures both: Figs.
4-7 time the operation; Fig. 8 the setup.

A backend defines the operation once, as one op stream per rank
(:meth:`~NeighborhoodAllgatherAlgorithm.rank_ops`) that walks the plan
``setup()`` built.  Both execution paths read that stream:

* :meth:`~NeighborhoodAllgatherAlgorithm.program` pulls it lazily through
  :func:`~repro.sim.program.rank_program`, the engine's one rank program,
  which moves block ids as payloads and checks them as it goes;
* :meth:`~NeighborhoodAllgatherAlgorithm.build_schedule` materialises every
  rank's stream into the :class:`~repro.sim.schedule.Schedule` the fast path
  compiles.
"""

from __future__ import annotations

import abc
import inspect
from dataclasses import dataclass, field, replace
from functools import cached_property
from typing import TYPE_CHECKING, Any, Callable, ClassVar, Generator, Iterator, Sequence

from repro.cluster.machine import Machine
from repro.sim.plancache import machine_digest, topology_digest
from repro.sim.program import rank_program
from repro.topology.graph import DistGraphTopology

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.engine import Engine


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

    @cached_property
    def size_table(self) -> Sequence[int]:
        """Byte size of each rank's block, indexed by source rank: built
        once per context, for a stream to bind once (``size = ctx.size_table``,
        then ``size[src]``) instead of a method call per op."""
        if self.block_sizes is None:
            return [self.msg_size] * self.topology.n
        return self.block_sizes

    def sizer(self) -> Callable[[Sequence[int]], int]:
        """A function giving the total bytes of a sequence of source-rank
        block ids, for a stream to bind once: a closure over ``msg_size``
        for uniform sizes, a per-source sum over ``block_sizes`` otherwise."""
        if self.block_sizes is None:
            m = self.msg_size
            return lambda blocks: m * len(blocks)
        sizes = self.block_sizes
        return lambda blocks: sum(sizes[src] for src in blocks)


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
        self._pattern_key: tuple | None = None

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
        self._pattern_key = None
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
        program order, the ops of :mod:`repro.sim.program` (``charge``,
        ``send``, ``recv``, ``wait`` and ``deliver``), whose block ids are
        source ranks: a send's ``blocks`` tuple holds the source ranks whose
        blocks make up its ``nbytes``.

        Byte fields come from ``ctx.size_table`` and the ``ctx.sizer()``
        function only, never ``ctx.msg_size``, which is what lets
        :meth:`schedule_for` build in block counts.  ``deliver``
        points are part of the algorithm: under fail-stop faults the
        blocks delivered before a crash decide the residual topology of
        the recovery round.
        """

    def program(self, engine: "Engine", rank: int, ctx: ExecutionContext) -> Generator | None:
        """Rank ``rank``'s program on ``engine``: its :meth:`rank_ops`
        stream, run by :func:`~repro.sim.program.rank_program`.

        Returns ``None`` when the stream is ``None``.  A block id is a
        source rank: the rank starts holding its own block, and ``deliver``
        sets ``ctx.results[rank][src] = ctx.payloads[src]``.  The program
        raises an :class:`AssertionError` naming the rank when a send
        carries a block the rank does not hold, a received message's size
        differs from its ``recv`` op, or a delivered block never arrived.
        """
        stream = self.rank_ops(ctx, rank)
        if stream is None:
            return None
        return rank_program(engine, rank, stream, (rank,), ctx.payloads, ctx.results[rank])

    def build_schedule(self, ctx: ExecutionContext):
        """Every rank's :meth:`rank_ops` stream, materialised as a
        :class:`~repro.sim.schedule.Schedule`.

        ``deliver`` ops become ``Schedule.deliveries``, in stream order; the
        other ops, unchanged, become the rank's op list, which is encoded
        (:func:`~repro.sim.schedule.encode_ops`) as soon as the rank's stream
        is drained, so no op tuple outlives its rank.  The encoding is
        in-process only, never stored across processes or interpreter
        versions.
        """
        from repro.sim.schedule import Schedule, encode_ops

        encoded: list[bytes | None] = []
        deliveries: list[list[int]] = []
        for rank in range(ctx.topology.n):
            stream = self.rank_ops(ctx, rank)
            if stream is None:
                encoded.append(None)
                deliveries.append([])
                continue
            ops: list[tuple] = []
            delivered: list[int] = []
            for op in stream:
                if op[0] == "deliver":
                    delivered.extend(op[1])
                else:
                    ops.append(op)
            encoded.append(encode_ops(ops))
            deliveries.append(delivered)
        return Schedule(ctx.topology.n, tuple(encoded), deliveries)

    def schedule_for(self, ctx: ExecutionContext):
        """:meth:`build_schedule`, in block counts for uniform sizes.

        Backends size their ops only through ``ctx.size_table`` and
        ``ctx.sizer()``, so a uniform-size schedule is linear in the block
        size: built on a copy of ``ctx`` with ``msg_size=1``, its byte
        fields are block counts, and the schedule at ``m`` is that one
        priced with ``unit=m`` (see :func:`repro.sim.fastpath.execute_schedule`),
        so one compiled plan serves every message size.  Allgatherv
        contexts keep raw byte counts (``unit=1``).  Not memoized: the fast
        path calls this only on a plan-cache miss (:meth:`plan_key`).
        """
        return self.build_schedule(ctx if ctx.block_sizes is not None
                                   else replace(ctx, msg_size=1))

    def plan_key(self, ctx: ExecutionContext) -> tuple:
        """The plan-cache key of :meth:`schedule_for`'s schedule for ``ctx``
        (see :mod:`repro.sim.plancache`): the inputs that determine it.

        The pattern key, computed once per :meth:`setup`, is the class
        object, the constructor arguments (what :meth:`replan` reads; each
        must be hashable) and the digests of the set-up topology and
        machine; ``ctx.block_sizes`` completes it (``None`` for uniform
        sizes).  ``ctx`` must carry the set-up topology and machine
        objects, since a miss builds and compiles for ``ctx``: any other
        raises ``ValueError``.
        """
        key = self._pattern_key
        if key is None:
            self.require_setup()
            key = self._pattern_key = (
                type(self), tuple(self._arguments().items()),
                topology_digest(self._topology), machine_digest(self._machine),
            )
        if ctx.topology is not self._topology or ctx.machine is not self._machine:
            raise ValueError(
                f"{self.name}: the context must carry the topology and machine "
                "the algorithm was set up on"
            )
        return key, None if ctx.block_sizes is None else tuple(ctx.block_sizes)

    def replan(self) -> "NeighborhoodAllgatherAlgorithm":
        """ULFM-style recovery: a fresh, not set up instance for the shrunk run.

        After a fail-stop failure the runner rebuilds the communicator over
        the survivors and re-runs the collective over the *residual*
        topology — only the edges whose blocks were not yet delivered.  The
        instance this returns is ``setup()`` over that topology by the
        runner (recovery pays pattern-creation cost again, like a real
        ``MPI_Comm_shrink`` + re-negotiation).  It is built with this
        instance's constructor arguments, so a backend's tuning carries
        across the replan: every backend stores each ``__init__`` argument
        as an attribute of the same name.
        """
        return type(self)(**self._arguments())

    def _arguments(self) -> dict[str, Any]:
        """This instance's constructor arguments, each read from the
        attribute of its name."""
        return {p: getattr(self, p) for p in inspect.signature(type(self)).parameters}

    # ---------------------------------------------------------------- helpers
    @property
    def is_setup(self) -> bool:
        return self.setup_stats is not None

    def require_setup(self) -> None:
        if not self.is_setup:
            raise RuntimeError(f"{self.name}: setup() must run before program()")

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        state = "ready" if self.is_setup else "unset"
        return f"{type(self).__name__}(name={self.name!r}, {state})"


#: The capability vocabulary.  Registration validates declared capabilities
#: against this set, so a typo ("shedule") fails at import time, not when a
#: bench silently skips the backend.  See docs/ARCHITECTURE.md ("the
#: algorithm zoo") for what each flag promises.
CAPABILITIES = frozenset({
    "setup_free",  # zero pattern-creation cost; usable as a degrade target
    "oracle",      # enrolled as a mutual oracle in repro.verify fuzzing
    "bench",       # enrolled in the bench sweeps / figures / resilience grids
})

#: The registry-resolved degrade/fallback target: the algorithm every
#: ``fallback=`` / ``on_failure="degrade"`` path switches to.  Its
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
    ``bench_kwargs`` the constructor rejects, and a
    :data:`SETUP_FREE_FALLBACK` registration that is not actually
    setup-free are all errors.
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
