"""Resolution of ``algorithm="auto"`` against the active decision table.

Selection is a two-stage filter:

1. **Capability filter** (registry-driven, satellite-pinned): the fault
   class of the workload decides which registry query supplies the
   candidate set — every fuzz-oracle algorithm normally, only the
   setup-free subset when the fault plan could starve a setup
   negotiation (``"risky"``).  A fifth registered backend enters the
   candidate set automatically; the decision table merely orders it last
   until re-distilled.
2. **Ranking walk** (table-driven): the workload's feature key looks up
   the table's best-first ranking; the first candidate that survives the
   workload's fault plan wins.  Survivability is checked against the
   candidate's *actual* setup cost — the algorithm is instantiated and
   set up during the walk, and the resulting instance is handed to the
   runner so the setup work is paid exactly once.

Everything here is deterministic: the table is content-versioned, the
registry order is fixed by import order, and setup statistics are pure
functions of (topology, machine).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

from repro.collectives.base import (
    NeighborhoodAllgatherAlgorithm,
    algorithm_info,
    get_algorithm,
    list_algorithms,
)
from repro.model.crossover import analytic_ranking, model_params_for
from repro.select.features import WorkloadFeatures, extract_features
from repro.select.table import DecisionTable, active_table

#: Capability queries per fault class.  ``"risky"`` means the plan could
#: starve a setup negotiation, so only setup-free candidates are safe to
#: even attempt; every other class selects among the full oracle set and
#: relies on the per-candidate survivability walk.
CANDIDATE_REQUIRES: dict[str, frozenset[str]] = {
    "clean": frozenset({"oracle"}),
    "perturbed": frozenset({"oracle"}),
    "crash": frozenset({"oracle"}),
    "risky": frozenset({"oracle", "setup_free"}),
}


def candidates_for(fault: str) -> tuple[str, ...]:
    """Registry candidate names for a fault class, registration order."""
    return tuple(info.name for info in list_algorithms(requires=CANDIDATE_REQUIRES[fault]))


@dataclass(frozen=True)
class Selection:
    """The outcome of one ``algorithm="auto"`` resolution.

    ``instance`` is ready to hand to the runner; when a fault plan forced
    a survivability walk it is already set up (the runner's ``setup()``
    call is memoized, so the cost is not paid twice).  ``ranking`` is the
    full order that was walked, ``rejected`` the prefix that failed the
    survivability check.
    """

    algorithm: str
    kwargs: tuple[tuple[str, Any], ...]
    instance: NeighborhoodAllgatherAlgorithm
    features: WorkloadFeatures
    table_version: str
    source: str
    ranking: tuple[str, ...]
    rejected: tuple[str, ...] = ()

    def describe(self) -> str:
        parts = [f"{self.algorithm} (source={self.source}, "
                 f"table={self.table_version})"]
        if self.rejected:
            parts.append(f"rejected non-survivable: {', '.join(self.rejected)}")
        return "; ".join(parts)


# Calibration is a simulated ping-pong (an engine run per probe size):
# memoize per machine shape + cost model so the analytic fallback prices
# a shape once per process.
_CALIBRATION_CACHE: dict[tuple, tuple[float, float]] = {}


def _calibrated(machine) -> tuple[float, float]:
    spec = machine.spec
    # HockneyParameters holds dicts (unhashable): its repr is a stable,
    # complete rendering of the cost model, good enough for a memo key.
    key = (spec.nodes, spec.sockets_per_node, spec.ranks_per_socket,
           repr(machine.params))
    if key not in _CALIBRATION_CACHE:
        from repro.cluster.calibration import calibrate

        fit = calibrate(machine)
        _CALIBRATION_CACHE[key] = (fit.alpha, fit.beta)
    return _CALIBRATION_CACHE[key]


def _analytic_order(
    features: WorkloadFeatures, machine, allowed: tuple[str, ...]
) -> tuple[str, ...]:
    """Analytic fallback ranking for a key the table does not cover."""
    alpha, beta = _calibrated(machine)
    params = model_params_for(
        n=features.n_ranks,
        sockets=features.sockets_per_node,
        ranks_per_socket=features.ranks_per_socket,
        alpha=alpha,
        beta=beta,
    )
    return analytic_ranking(
        params, features.density, features.mean_bytes, candidates=allowed
    )


def _merge_ranking(
    table_ranking: tuple[str, ...], allowed: tuple[str, ...]
) -> tuple[str, ...]:
    """Table order filtered to the allowed set, unseen candidates appended.

    The append keeps selection total over the registry: a backend
    registered after the table was distilled is still selectable (last),
    and the completeness test demands a re-distillation to rank it
    properly.
    """
    ranked = [name for name in table_ranking if name in allowed]
    ranked.extend(name for name in allowed if name not in ranked)
    return tuple(ranked)


def _kwargs_for(name: str, table: DecisionTable) -> tuple[tuple[str, Any], ...]:
    try:
        return tuple(table.kwargs_for(name).items())
    except KeyError:
        return tuple(algorithm_info(name).bench_kwargs)


def select(
    topology,
    machine,
    msg_size,
    options=None,
    table: DecisionTable | None = None,
) -> Selection:
    """Resolve ``algorithm="auto"`` for one workload.

    ``topology`` is a built topology, ``machine`` a
    :class:`~repro.cluster.machine.Machine`, ``msg_size`` anything the
    runner accepts, ``options`` the run's
    :class:`~repro.collectives.runner.RunOptions` (or ``None`` for a
    clean run).  ``table`` overrides the active table for this call.
    """
    if table is None:
        table = active_table()
    features = extract_features(topology, machine.spec, msg_size, options)
    allowed = candidates_for(features.fault)
    if not allowed:
        raise RuntimeError(
            f"no registered algorithm satisfies "
            f"{sorted(CANDIDATE_REQUIRES[features.fault])} for fault class "
            f"{features.fault!r}"
        )

    entry = table.lookup(features.key())
    if entry is not None:
        ranking = _merge_ranking(entry.ranking, allowed)
        source = entry.source
    else:
        ranking = _analytic_order(features, machine, allowed)
        source = "analytic-fallback"

    plan = options.fault_plan if options is not None else None
    rejected: list[str] = []
    if plan is not None and not plan.is_noop():
        # Survivability walk: set up each candidate in ranking order and
        # take the first whose real protocol-message count the plan
        # cannot starve.  The winning (already set-up) instance is
        # returned, so the runner's memoized setup() is free.
        for name in ranking:
            instance = get_algorithm(name, **dict(_kwargs_for(name, table)))
            stats = instance.setup(topology, machine)
            if plan.setup_survivable(stats.protocol_messages):
                return Selection(
                    algorithm=name,
                    kwargs=_kwargs_for(name, table),
                    instance=instance,
                    features=features,
                    table_version=table.version,
                    source=source,
                    ranking=ranking,
                    rejected=tuple(rejected),
                )
            rejected.append(name)
        raise RuntimeError(
            f"no candidate survives the fault plan's setup pressure "
            f"(walked {ranking}); fault class {features.fault!r}"
        )

    name = ranking[0]
    return Selection(
        algorithm=name,
        kwargs=_kwargs_for(name, table),
        instance=get_algorithm(name, **dict(_kwargs_for(name, table))),
        features=features,
        table_version=table.version,
        source=source,
        ranking=ranking,
    )
