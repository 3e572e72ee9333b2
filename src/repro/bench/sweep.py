"""The orchestrated smoke grids CI runs: one grid function, two sizes.

:func:`smoke_sweep` runs a fixed grid of :class:`~repro.exec.spec.RunSpec`
through :meth:`~repro.bench.config.SweepConfig.run_grid` and reports the
execution statistics (cache hit rate, worker count) with the records.
``repro bench --sweep-smoke`` runs its default tiny grid; ``--paper-smoke``
runs :data:`PAPER_SMOKE`, a reduced Fig. 5 slice at the paper's scale, on
the fast path.  CI runs each twice and asserts the second pass is answered
from cache.
"""

from __future__ import annotations

from typing import Any

from repro.bench.config import SweepConfig
from repro.collectives.base import algorithm_info, list_algorithms
from repro.exec.spec import MachineSpec, RunSpec, TopologySpec
from repro.utils.sizes import parse_size

#: K values tried for the Common Neighbor baseline (paper: "various values
#: of K ... we report the best results").  Sourced from the registry's
#: tuning declaration so the registration site is the single authority.
DEFAULT_CN_KS = algorithm_info("common_neighbor").tuning_values("k")

#: The smoke grid's algorithms: every bench-enrolled one, with its registry
#: bench kwargs.
SMOKE_ALGORITHMS = tuple(
    (info.name, info.bench_kwargs) for info in list_algorithms(requires={"bench"})
)

#: Topology seed of both smoke grids (``repro.select.distill`` shares it,
#: so the distillation grid holds the default grid's specs).
SMOKE_SEED = 23

#: ``--paper-smoke``'s grid: the paper's 2160-rank Niagara footprint, run
#: with ``sim_mode="auto"`` (a DES pass at this scale takes minutes per
#: spec).
PAPER_SMOKE = {
    "ranks": 2160, "ranks_per_socket": 18, "densities": (0.1, 0.3),
    "sizes": ("8KB",),
}


def smoke_sweep(
    config: SweepConfig | None = None,
    *,
    ranks: int = 16,
    ranks_per_socket: int = 4,
    densities: tuple[float, ...] = (0.1, 0.5),
    sizes: tuple[str, ...] = ("64", "16KB"),
) -> dict[str, Any]:
    """Every smoke algorithm over ``densities`` x ``sizes`` on random
    graphs; returns the records plus the execution statistics.

    The grid is fixed and fully deterministic, so consecutive invocations
    against a shared cache answer every spec from cache — the report's
    ``execution.cache.hit_rate`` is what CI asserts on.  Specs carry
    ``config.run_options()``, so the config's ``sim_mode`` reaches their
    digests.
    """
    cfg = config or SweepConfig()
    options = cfg.run_options()
    machine = MachineSpec.for_ranks(ranks, ranks_per_socket)
    keyed: list[tuple[tuple, RunSpec]] = []
    for density in densities:
        topology = TopologySpec("random", ranks, density=density, seed=SMOKE_SEED)
        for size in sizes:
            for name, kwargs in SMOKE_ALGORITHMS:
                keyed.append((
                    (name, density, parse_size(size)),
                    RunSpec(name, topology, machine, size,
                            algorithm_kwargs=kwargs, options=options),
                ))
    runs, stats = cfg.run_grid(keyed)
    records = [
        {
            "algorithm": name,
            "density": density,
            "msg_bytes": msg_bytes,
            "simulated_time": run.simulated_time,
            "messages": run.messages_sent,
            "sim_path": run.sim_path,
        }
        for (name, density, msg_bytes), run in runs.items()
    ]
    return {
        "experiment": "smoke_sweep",
        "ranks": ranks,
        "seed": SMOKE_SEED,
        "sim_mode": cfg.sim_mode,
        "records": records,
        "execution": stats,
    }
