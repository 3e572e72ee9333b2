"""Rank-facing MPI-like API: the :class:`SimCommunicator`.

Programs receive one of these and use it like mpi4py's ``Comm``: post
non-blocking operations (``isend``/``irecv``), then ``yield`` a wait
condition (``wait``/``waitall``), mix in local work (``compute``/``memcpy``)
and synchronize (``barrier``).  Every posted call charges the configured
per-call CPU overhead to the rank's local clock, so posting 1500 receives
is not free — one of the naive algorithm's real costs.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Iterable

from repro.sim.request import Request

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.engine import Engine

#: Wildcard source for :meth:`SimCommunicator.irecv`, like ``MPI_ANY_SOURCE``.
ANY_SOURCE: int = -1


class SimCommunicator:
    """Per-rank handle into the engine; mirrors a tiny slice of ``MPI_Comm``.

    :meth:`~repro.sim.engine.Engine.spawn` builds one for the rank and
    passes it to the program; the engine keeps no reference to it.  Its
    requests wrap the engine's send and receive paths, and
    :meth:`waitall` turns them into the engine's one wait condition: the
    receives' slots, with the latest send completion as its floor.
    """

    __slots__ = ("engine", "rank", "_rank_now", "_call_overhead", "_memcpy_beta")

    def __init__(self, engine: "Engine", rank: int):
        self.engine = engine
        self.rank = rank
        # Hot-path caches: every isend/irecv charges the per-call overhead,
        # so resolve the constants (and the clock list) once per rank
        # instead of chasing engine.machine.params on each post.
        self._rank_now = engine.rank_now
        self._call_overhead = engine.machine.params.call_overhead
        self._memcpy_beta = engine.machine.params.memcpy_beta

    # ------------------------------------------------------------------ intro
    @property
    def size(self) -> int:
        """Communicator size (``MPI_Comm_size``)."""
        return self.engine.n_ranks

    @property
    def now(self) -> float:
        """This rank's local virtual clock."""
        return self.engine.rank_now[self.rank]

    # ------------------------------------------------------------ nonblocking
    def isend(self, dst: int, nbytes: int, tag: int = 0, payload: Any = None) -> Request:
        """Post a non-blocking send of ``nbytes`` (+ optional payload object)."""
        # Per-call CPU overhead, charged inline (one method call per posted
        # operation adds up over million-message sweeps).
        self._rank_now[self.rank] += self._call_overhead
        return self.engine.post_send(self.rank, dst, nbytes, tag, payload)

    def irecv(self, src: int = ANY_SOURCE, tag: int = 0) -> Request:
        """Post a non-blocking receive from ``src`` (default any source)."""
        self._rank_now[self.rank] += self._call_overhead
        return self.engine.post_recv(self.rank, None if src == ANY_SOURCE else src, tag)

    # -------------------------------------------------------------- conditions
    def wait(self, request: Request):
        """Condition: block until ``request`` completes."""
        return self.waitall((request,))

    def waitall(self, requests: Iterable[Request]):
        """Condition: block until every request completes."""
        rank = self.rank
        slots = []
        floor = 0.0
        for req in requests:
            if req.owner != rank:
                raise ValueError(f"rank {rank} waiting on request owned by rank {req.owner}")
            if req.slot is None:  # a send: determined when posted
                if req.completion_time > floor:
                    floor = req.completion_time
            else:
                slots.append(req.slot)
        return self.engine.waitall_condition(slots, floor)

    def compute(self, seconds: float):
        """Condition: model ``seconds`` of local computation."""
        return self.engine.compute_condition(seconds)

    def memcpy(self, nbytes: int):
        """Condition: model a local memory copy of ``nbytes``."""
        if nbytes < 0:
            raise ValueError(f"nbytes must be >= 0, got {nbytes}")
        return self.engine.compute_condition(self.engine.machine.params.memcpy_time(nbytes))

    def barrier(self):
        """Condition: synchronize with all live ranks."""
        return self.engine.barrier_condition()

    # ------------------------------------------------------------------ sugar
    def charge_memcpy(self, nbytes: int) -> None:
        """Advance the local clock by a memcpy without yielding.

        Useful inside tight loops where yielding per copy would be wasteful;
        the time still lands on this rank's critical path.
        """
        if nbytes < 0:
            raise ValueError(f"nbytes must be >= 0, got {nbytes}")
        self._rank_now[self.rank] += nbytes / self._memcpy_beta

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"SimCommunicator(rank={self.rank}/{self.size})"
