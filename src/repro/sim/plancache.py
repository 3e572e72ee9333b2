"""Cross-run compiled-plan cache for the hybrid fast path.

:mod:`repro.sim.fastpath` compiles a set-up algorithm's
:class:`~repro.sim.schedule.Schedule` into a size-free executor plan.
Building the schedule and compiling it walk every op — cheap next to a
DES run, but pure overhead when a sweep revisits a pattern, which Fig.
5-style grids do constantly (every message size, every repeat, every
fresh instance a cold cell sets up on the topology of an earlier cell).
As the paper creates a neighborhood once
(``MPI_Dist_graph_create_adjacent``) and reuses it for every message size,
and Träff et al. compute a message-combining schedule once per
neighborhood, a plan is built once per pattern.

This module holds the process-wide memo for those plans: a bounded LRU
keyed by the inputs that determine a schedule, not by the schedule —

``((backend class, constructor arguments, topology digest, machine digest), block sizes)``

* the first part is the pattern key of
  :meth:`~repro.collectives.base.NeighborhoodAllgatherAlgorithm.plan_key`,
  computed once per set-up instance: the backend's class object, its
  constructor arguments (the attributes ``replan()`` reads),
  :func:`topology_digest` of the set-up topology's out-lists and
  :func:`machine_digest` of the set-up machine;
* the second is the allgatherv block-size tuple, or ``None`` for uniform
  sizes, whose schedules count blocks, so every message size of a pattern
  has one key.

A plan holds the executor's tables and the schedule's deliveries, from
which the runner fills the result buffers, so a cell whose pattern an
earlier cell compiled builds no schedule.  Cells of different algorithms
on one topology have different keys and compile a plan each.  The key
rests on one premise, which ``tests/collectives/test_schedule_scaling.py``
checks for every backend: two instances constructed and set up
independently on equal inputs build byte-equal schedules with equal
deliveries.  Code that patches a backend's builder or op stream
in-process breaks it for the plans cached before the patch, so it must
call :func:`reset_plan_cache` first.  A hand-built schedule is compiled
without the cache (:func:`repro.sim.fastpath.compile_schedule`).

One plan serves every call on its pattern: every message size (a call
prices the plan for its block size), and schedules whose run deadlocks.
Cached values hold only plain numbers, tuples, lists and numpy arrays —
never a ``Machine``, topology or ``Schedule`` reference — so retention
cannot leak simulation state, and never ``None``, so :meth:`PlanCache.get`
reports a miss as ``None``.

A plan costs 156 B per message on a dense naive schedule and more where
a plan has few messages per op, its deliveries included (one tuple per
rank naming each source through the plan's rank-id table, 8 B per
delivered block; tracemalloc): 0.36–3.1 MiB for a 264-rank Fig. 5 cell
(21.4 MiB for the 16 plans of one benchmark round), 66.6 MiB for the
2160-rank density-0.1 naive schedule and 72.7 MiB for its Common Neighbor
(k=4) one.

Stats (hits/misses/evictions) are process-global and surfaced through
``repro.exec`` sweep reports and the wallclock harness payload; see
:func:`plan_cache_stats`.
"""

from __future__ import annotations

import hashlib
import marshal
from collections import OrderedDict
from typing import Any

#: Default LRU capacity.  A 264-rank Fig. 5 plan holds 0.36–3.1 MiB and a
#: 2160-rank density-0.1 one 67–73 MiB, so the bound stays modest —
#: but it must hold a whole bench grid, and evicting mid-grid forfeits the
#: warm-repeat hits the cache exists for.
DEFAULT_MAX_ENTRIES = 128


def _network_fingerprint(net: Any) -> str:
    """Recursive structural fingerprint of a NetworkTopology.

    ``describe()`` is cosmetic and omits constructor state (e.g.
    DragonflyPlus's ``links_per_pair``), so the fingerprint walks the
    instance's own attributes: scalars by repr, sequences element-wise,
    nested topologies (``PermutedNodes.base``) recursively.
    """
    parts = []
    for name, value in sorted(vars(net).items()):
        if hasattr(value, "link_choices"):  # nested NetworkTopology
            parts.append(f"{name}=({_network_fingerprint(value)})")
        elif isinstance(value, (tuple, list)):
            parts.append(f"{name}=[{','.join(repr(v) for v in value)}]")
        else:
            parts.append(f"{name}={value!r}")
    return f"{type(net).__name__}{{{';'.join(parts)}}}"


def machine_digest(machine: Any) -> str:
    """Structural digest of a Machine — the pattern key's machine part.

    Covers every field of the machine, so every input a backend's setup
    and the fast-path compiler read: the cluster shape, all Hockney
    link/host constants, jitter, and the full network topology state
    (recursively, so a placement permutation or a non-default
    ``links_per_pair`` yields a distinct digest).  Two structurally
    identical machines share a digest and therefore share cached plans and
    route rows (:func:`repro.sim.fabric.routes_for`).  Not memoized: it
    costs tens of microseconds, once per set-up instance that takes the
    fast path (its pattern key), once per compile and once per engine run
    (their route rows).
    """
    spec = machine.spec
    params = machine.params
    links = ";".join(
        f"{cls.name}={cost.alpha!r},{cost.beta!r}"
        for cls, cost in sorted(params.links.items(), key=lambda kv: kv[0].name)
    )
    return "|".join((
        f"spec:{spec.nodes},{spec.sockets_per_node},{spec.ranks_per_socket}",
        f"links:{links}",
        f"host:{params.memcpy_beta!r},{params.call_overhead!r},"
        f"{params.per_hop_alpha!r},{params.nic_message_overhead!r},"
        f"{params.link_message_overhead!r},{params.jitter!r}",
        f"net:{_network_fingerprint(machine.network)}",
    ))


def topology_digest(topology: Any) -> str:
    """Content digest of a topology's out-lists — the pattern key's
    topology part.

    A SHA-256, cut to 128 bits, of ``marshal`` format 2 (which encodes by
    value, with no references between equal objects) of the rank count and
    every rank's sorted out-list.  The in-lists are derived from the
    out-lists, so equal digests name equal topologies.
    """
    n = topology.n
    out = tuple(map(topology.out_neighbors, range(n)))
    return hashlib.sha256(marshal.dumps((n, out), 2)).hexdigest()[:32]


class PlanCache:
    """Bounded LRU over ``(pattern key, block sizes)`` keys."""

    __slots__ = ("max_entries", "_entries", "hits", "misses", "evictions")

    def __init__(self, max_entries: int = DEFAULT_MAX_ENTRIES) -> None:
        if max_entries < 1:
            raise ValueError(f"max_entries must be >= 1, got {max_entries}")
        self.max_entries = max_entries
        self._entries: OrderedDict[tuple, Any] = OrderedDict()
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def get(self, key: tuple) -> Any:
        """Cached value for ``key``, or ``None`` on a miss."""
        entries = self._entries
        value = entries.get(key)
        if value is None:
            self.misses += 1
        else:
            entries.move_to_end(key)
            self.hits += 1
        return value

    def put(self, key: tuple, value: Any) -> None:
        entries = self._entries
        entries[key] = value
        entries.move_to_end(key)
        while len(entries) > self.max_entries:
            entries.popitem(last=False)
            self.evictions += 1

    def __len__(self) -> int:
        return len(self._entries)

    def stats(self) -> dict[str, Any]:
        lookups = self.hits + self.misses
        return {
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
            "size": len(self._entries),
            "max_entries": self.max_entries,
            "hit_rate": self.hits / lookups if lookups else 0.0,
        }

    def clear(self) -> None:
        """Drop all entries and zero the counters."""
        self._entries.clear()
        self.hits = 0
        self.misses = 0
        self.evictions = 0


#: The process-wide instance used by :mod:`repro.sim.fastpath`.
PLAN_CACHE = PlanCache()


def plan_cache_stats() -> dict[str, Any]:
    """Snapshot of the process-wide plan cache counters (JSON-friendly)."""
    return PLAN_CACHE.stats()


def reset_plan_cache(max_entries: int | None = None) -> None:
    """Empty the process-wide cache (and optionally resize it)."""
    if max_entries is not None:
        if max_entries < 1:
            raise ValueError(f"max_entries must be >= 1, got {max_entries}")
        PLAN_CACHE.max_entries = max_entries
    PLAN_CACHE.clear()
