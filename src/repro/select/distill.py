"""Deterministic distillation of the decision table.

Two sources, merged in a fixed order:

1. **Analytic prior** — every bucket key is priced with the Hockney
   model (Eqs. 5/8) at the bucket's representative scale/density/size,
   with ``alpha``/``beta`` calibrated once against a reference machine's
   simulated ping-pong.  This covers the whole 432-key space, including
   paper-scale buckets no CI-sized sweep can execute.
2. **Empirical refinement** — a fixed grid of small-scale
   :class:`~repro.exec.RunSpec` (a superset of ``smoke_sweep``'s grid,
   so CI's warm sweep cache answers the shared cells) is executed
   through :class:`~repro.bench.config.SweepConfig`; each grid cell
   votes its candidates' normalized times into its feature key, and any
   key with at least one vote overrides the prior with the
   geomean-normalized empirical ranking.

Both stages are pure functions of (registry, grid, cache contents):
re-distilling against the same cache yields a bit-identical table with
the same content version.
"""

from __future__ import annotations

import math
from typing import Any

from repro.bench.config import SweepConfig
from repro.collectives.base import list_algorithms
from repro.model.crossover import analytic_ranking, model_params_for
from repro.select.features import (
    DENSITY_REPRESENTATIVE,
    MSG_REPRESENTATIVE,
    SCALE_REPRESENTATIVE,
    all_keys,
    extract_features,
    split_key,
)
from repro.select.table import DecisionTable, TableEntry

#: The capability query whose result becomes the table's candidate set.
#: The completeness pin (tests/select) asserts table.candidates matches
#: this exact query, so a fifth oracle backend forces a re-distillation.
TABLE_REQUIRES = frozenset({"oracle"})

#: Reference machine shape the prior's ping-pong calibration runs on
#: (two Niagara-like nodes — crosses the network, like the paper's).
CALIBRATION_SHAPE = dict(nodes=2, sockets_per_node=2, ranks_per_socket=4)

#: Empirical grid: machine shapes (nodes, sockets_per_node,
#: ranks_per_socket) spanning the xs/s/m scale buckets — including odd
#: shapes like 3x1x3 = 9 ranks, where structured stencils (3x3 Moore is
#: the *complete* graph) land in density buckets the even shapes never
#: reach — random densities spanning every non-empty density bucket, the
#: structured generators across the fuzzer's radius/dims/edges ranges,
#: and message sizes spanning every size bucket.  The (2, 2, 4) machine
#: at densities 0.1/0.5 and sizes 64/16384 is exactly ``smoke_sweep``'s
#: grid — those cells are warm in CI.
GRID_MACHINES = (
    (1, 1, 2), (1, 1, 3), (1, 1, 4), (1, 2, 2), (1, 2, 3), (1, 2, 4),
    (3, 1, 3), (2, 2, 4), (4, 2, 4),
)
GRID_DENSITIES = (0.05, 0.1, 0.3, 0.5, 0.6, 0.9)
GRID_MOORE = ((1, 1), (1, 2), (2, 2), (2, 3))   # (radius, dims)
GRID_CARTESIAN = (1, 2, 3)                      # dims
GRID_EDGES_PER_RANK = (1, 2, 4)                 # scale_free
GRID_SIZES = (0, 1, 64, 512, 4096, 16384, 65536)
#: Instance seeds for the seeded generators (random, scale_free): two
#: draws per density so a single unlucky instance cannot flip a bucket.
#: 23 first — it makes ``smoke_sweep``'s specs an exact grid subset.
GRID_SEEDS = (23, 24)
GRID_SEED = GRID_SEEDS[0]


def table_candidates() -> tuple[tuple[str, tuple[tuple[str, Any], ...]], ...]:
    """(name, bench_kwargs) for every selectable algorithm, registry order."""
    return tuple(
        (info.name, tuple(info.bench_kwargs))
        for info in list_algorithms(requires=TABLE_REQUIRES)
    )


def _reference_fit() -> tuple[float, float]:
    from repro.cluster.calibration import calibrate
    from repro.cluster.machine import Machine

    fit = calibrate(Machine.niagara_like(**CALIBRATION_SHAPE))
    return fit.alpha, fit.beta


def analytic_prior(
    candidates: tuple[str, ...], alpha: float, beta: float
) -> dict[str, TableEntry]:
    """Model-ranked entry for every key in the bucket vocabulary."""
    entries: dict[str, TableEntry] = {}
    for key in all_keys():
        scale, dens, _shape, msg = split_key(key)
        n = SCALE_REPRESENTATIVE[scale]
        rps = min(8, n)
        params = model_params_for(
            n=n,
            sockets=CALIBRATION_SHAPE["sockets_per_node"],
            ranks_per_socket=rps,
            alpha=alpha,
            beta=beta,
        )
        ranking = analytic_ranking(
            params,
            DENSITY_REPRESENTATIVE[dens],
            float(MSG_REPRESENTATIVE[msg]),
            candidates=candidates,
        )
        entries[key] = TableEntry(ranking=ranking, source="analytic")
    return entries


def distill_grid() -> "list[tuple[Any, Any, int]]":
    """The empirical grid cells as (TopologySpec, MachineSpec, msg_bytes)."""
    from repro.exec.spec import MachineSpec, TopologySpec

    cells = []
    for nodes, sockets, rps in GRID_MACHINES:
        machine = MachineSpec(nodes=nodes, sockets_per_node=sockets,
                              ranks_per_socket=rps)
        n = machine.n_ranks
        topologies = [
            TopologySpec("random", n, density=d, seed=s)
            for s in GRID_SEEDS
            for d in GRID_DENSITIES
        ]
        topologies.extend(
            TopologySpec("moore", n, radius=r, dims=d) for r, d in GRID_MOORE
        )
        topologies.extend(
            TopologySpec("cartesian", n, dims=d) for d in GRID_CARTESIAN
        )
        topologies.extend(
            TopologySpec("scale_free", n, edges_per_rank=e, seed=s)
            for s in GRID_SEEDS
            for e in GRID_EDGES_PER_RANK
        )
        for topo in topologies:
            for size in GRID_SIZES:
                cells.append((topo, machine, size))
    return cells


def _geomean(values: list[float]) -> float:
    return math.exp(sum(math.log(v) for v in values) / len(values))


def distill(config: SweepConfig | None = None) -> DecisionTable:
    """Run (or replay from cache) the grid and build the table."""
    from repro.exec.spec import RunSpec

    cfg = config or SweepConfig()
    candidates = table_candidates()
    names = tuple(name for name, _ in candidates)

    cells = distill_grid()
    specs = [
        RunSpec(name, topo, machine, size, algorithm_kwargs=kwargs)
        for topo, machine, size in cells
        for name, kwargs in candidates
    ]
    sweep = cfg.run(specs).raise_errors()
    times = {spec.digest(): run.simulated_time
             for spec, run in zip(specs, sweep.runs)}

    # Each cell votes min-normalized times into its feature key.
    votes: dict[str, dict[str, list[float]]] = {}
    cell_counts: dict[str, int] = {}
    spec_iter = iter(specs)
    for topo, machine, size in cells:
        cell_specs = {next(spec_iter).digest(): name for name, _ in candidates}
        cell_times = {name: times[digest] for digest, name in cell_specs.items()}
        best = min(cell_times.values())
        if best <= 0.0:
            continue  # degenerate cell (no traffic): uninformative
        key = extract_features(topo.build(), machine, size, None).key()
        bucket = votes.setdefault(key, {name: [] for name in names})
        for name in names:
            bucket[name].append(cell_times[name] / best)
        cell_counts[key] = cell_counts.get(key, 0) + 1

    alpha, beta = _reference_fit()
    entries = analytic_prior(names, alpha, beta)
    for key, per_name in votes.items():
        scored = sorted(
            names,
            key=lambda name: (_geomean(per_name[name]), names.index(name)),
        )
        entries[key] = TableEntry(
            ranking=tuple(scored),
            source="empirical",
            cells=cell_counts[key],
        )

    return DecisionTable(
        candidates=candidates,
        entries=entries,
        provenance={
            "requires": sorted(TABLE_REQUIRES),
            "distilled_from": sorted(times),
            "model": {"alpha": alpha, "beta": beta},
            "grid": {
                "cells": len(cells),
                "machines": [list(m) for m in GRID_MACHINES],
                "densities": list(GRID_DENSITIES),
                "sizes": list(GRID_SIZES),
                "seed": GRID_SEED,
            },
        },
    )
