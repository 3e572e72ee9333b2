"""Cross-run compiled-plan cache for the hybrid fast path.

:mod:`repro.sim.fastpath` compiles a :class:`~repro.sim.schedule.Schedule`
into a size-free executor plan.  Compilation walks every op — cheap next to
a DES run, but pure overhead when a sweep revisits the same schedule shape
on the same machine, which Fig. 5-style grids do constantly (every repeat,
every message size of a pattern, every algorithm cell sharing a topology,
every warm bench pass).

This module provides the process-wide memo for those plans: a bounded LRU
keyed on *structure*, not identity —

``(schedule structural digest, machine digest)``

* the schedule half is :func:`repro.sim.schedule.structural_digest`
  (rank count + full op streams: the compiler's exact input), so two
  ``Schedule`` objects describing the same communication pattern — e.g.
  rebuilt by a fresh algorithm instance for the same topology cell — share
  one compilation (the isomorphic-neighborhood reuse from Träff et al.).
  Uniform-size schedules count blocks, not bytes, so every message size of
  a pattern has the same digest;
* the machine half is :func:`machine_digest`, a recursive structural
  fingerprint of the :class:`~repro.cluster.machine.Machine` (cluster
  shape, every Hockney constant, the network topology's constructor state
  including placement permutations) — everything that can influence a
  plan or its prices.

One plan serves every call on its pattern and machine: every message size
(a call prices the plan for its block size), and schedules whose run
deadlocks.  Cached values hold only plain
numbers, tuples, and numpy arrays — never a ``Machine`` or ``Schedule``
reference — so retention cannot leak simulation state, and never ``None``,
so :meth:`PlanCache.get` reports a miss as ``None``.

A plan costs about 140–200 B per message (tracemalloc): 0.3–4.0 MiB
for a 264-rank Fig. 5 cell (18.3 MiB for the 16 plans of one benchmark
round), 62.9 MiB for the 2160-rank density-0.1 naive schedule and
69.1 MiB for its Common Neighbor (k=4) one.

Stats (hits/misses/evictions) are process-global and surfaced through
``repro.exec`` sweep reports and the wallclock harness payload; see
:func:`plan_cache_stats`.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Any

#: Default LRU capacity.  A 264-rank Fig. 5 plan holds 0.3–4 MiB and a
#: 2160-rank density-0.1 one 63–69 MiB, so the bound stays modest —
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
    """Structural digest of a Machine — the cache key's machine half.

    Covers every input the fast-path compiler reads: the cluster shape,
    all Hockney link/host constants, jitter, and the full
    network topology state (recursively, so a placement permutation or a
    non-default ``links_per_pair`` yields a distinct digest).  Two
    structurally identical machines share a digest and therefore share
    cached plans and route rows (:func:`repro.sim.fabric.routes_for`).
    Not memoized: it costs tens of microseconds, once per fast-path call
    and per engine run.
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


class PlanCache:
    """Bounded LRU over ``(schedule digest, machine digest)`` keys."""

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
