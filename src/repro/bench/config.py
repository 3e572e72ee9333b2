"""Benchmark scales and machine construction.

The paper's experiments use 540-2160 ranks on the Niagara cluster.  A pure
Python discrete-event simulation at 2160 ranks and density 0.7 moves ~3M
messages per allgather, which is minutes per configuration — so benchmark
runs default to a scaled-down machine with the same structure (2 sockets
per node, Dragonfly+ groups) and the algorithmic comparison is scale-stable
(checked against the analytic model at full paper scale in Fig. 2).

Select a scale with the ``REPRO_BENCH_SCALE`` environment variable:
``small`` (default, 128 ranks), ``medium`` (256), ``large`` (512), or
``paper`` (2160 — expect long runtimes).
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING

from repro.cluster.machine import Machine

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.collectives.runner import AllgatherRun
    from repro.exec.cache import ResultCache
    from repro.exec.orchestrator import SweepResult
    from repro.exec.spec import RunSpec


@dataclass(frozen=True)
class BenchScale:
    """One benchmark scale: the base rank count and grid resolutions."""

    name: str
    ranks: int                 #: base communicator size (largest of Fig. 5's three)
    ranks_per_socket: int
    densities: tuple[float, ...]
    sizes: tuple[str, ...]
    moore_ranks: int
    repeats: int = 1


_SCALES = {
    "small": BenchScale(
        name="small",
        ranks=128,
        ranks_per_socket=8,
        densities=(0.05, 0.1, 0.2, 0.3, 0.5, 0.7),
        sizes=("8", "512", "4KB", "64KB", "512KB", "4MB"),
        moore_ranks=128,
    ),
    "medium": BenchScale(
        name="medium",
        ranks=256,
        ranks_per_socket=8,
        densities=(0.05, 0.1, 0.2, 0.3, 0.5, 0.7),
        sizes=("8", "128", "1KB", "8KB", "64KB", "512KB", "4MB"),
        moore_ranks=256,
    ),
    "large": BenchScale(
        name="large",
        ranks=512,
        ranks_per_socket=16,
        densities=(0.05, 0.1, 0.2, 0.3, 0.5, 0.7),
        sizes=("8", "128", "1KB", "8KB", "64KB", "512KB", "4MB"),
        moore_ranks=512,
    ),
    "paper": BenchScale(
        name="paper",
        ranks=2160,
        ranks_per_socket=18,
        densities=(0.05, 0.1, 0.2, 0.3, 0.5, 0.7),
        sizes=("8", "32", "512", "4KB", "64KB", "512KB", "4MB"),
        moore_ranks=2048,
    ),
}

ENV_VAR = "REPRO_BENCH_SCALE"


def get_scale(name: str | None = None) -> BenchScale:
    """Resolve a scale by name, falling back to ``$REPRO_BENCH_SCALE`` / small."""
    if name is None:
        name = os.environ.get(ENV_VAR, "small")
    try:
        return _SCALES[name]
    except KeyError:
        raise KeyError(f"unknown bench scale {name!r}; available: {sorted(_SCALES)}") from None


def bench_machine(n_ranks: int, ranks_per_socket: int = 8) -> Machine:
    """Niagara-like machine with exactly ``n_ranks`` (2 sockets per node)."""
    per_node = 2 * ranks_per_socket
    if n_ranks % per_node:
        raise ValueError(
            f"n_ranks={n_ranks} does not fill {per_node}-rank nodes; "
            "pick a multiple"
        )
    return Machine.niagara_like(nodes=n_ranks // per_node, ranks_per_socket=ranks_per_socket)


@dataclass
class SweepConfig:
    """Shared execution knobs for every bench driver.

    One config object carries the scale, the topology seed override, the
    simulation mode and — through :mod:`repro.exec` — the process-pool
    width and the result cache.  Every driver accepts ``config=``, builds
    its specs with :meth:`run_options` and runs its grid through
    :meth:`run_grid`, so ``repro bench --workers 4 --sim-mode auto ...``
    means the same thing for every figure.

    The library default is cacheless and serial (``use_cache=False``,
    ``workers=1``) so programmatic calls and the test suite stay
    side-effect-free; the CLI turns the cache on by default.
    """

    scale: BenchScale | None = None
    seed: int | None = None
    workers: int = 1
    cache_dir: str | Path | None = None
    use_cache: bool = False
    sim_mode: str = "des"
    _cache: "ResultCache | None" = field(default=None, repr=False, compare=False)

    def resolve_scale(self, override: BenchScale | None = None) -> BenchScale:
        """Explicit driver argument > config > ``$REPRO_BENCH_SCALE``."""
        return override or self.scale or get_scale()

    def resolve_seed(self, default: int) -> int:
        return self.seed if self.seed is not None else default

    def run_options(self):
        """The :class:`~repro.collectives.runner.RunOptions` for this
        config's ``sim_mode`` (shared default object when ``"des"``, so
        spec digests — and therefore cached results — are unchanged)."""
        from repro.collectives.runner import DEFAULT_OPTIONS, RunOptions

        if self.sim_mode == "des":
            return DEFAULT_OPTIONS
        return RunOptions(sim_mode=self.sim_mode)

    def cache(self) -> "ResultCache | None":
        """The shared :class:`ResultCache` (one instance, aggregated stats)."""
        if not self.use_cache:
            return None
        if self._cache is None:
            from repro.exec.cache import ResultCache

            self._cache = ResultCache(self.cache_dir)
        return self._cache

    def run(self, specs: "list[RunSpec]") -> "SweepResult":
        """Execute a spec sweep under this config's workers/cache."""
        from repro.exec.orchestrator import execute

        return execute(specs, workers=self.workers, cache=self.cache())

    def run_grid(
        self, keyed_specs: "list[tuple[tuple, RunSpec]]", verbose: bool = False
    ) -> "tuple[dict[tuple, AllgatherRun], dict]":
        """Execute ``[(key, spec), ...]``: ``({key: AllgatherRun}, stats)``.

        Any failed spec aborts the grid (grids want every cell).  The
        execution statistics are returned, and printed when ``verbose``;
        figures keep them out of their payloads, since archived figure JSON
        must stay bit-identical across worker counts and cache states.
        """
        sweep = self.run([spec for _, spec in keyed_specs]).raise_errors()
        stats = sweep.stats
        if verbose:
            cache = stats.get("cache")
            cache_note = (
                f", cache {cache['hits']} hits / {cache['misses']} misses"
                if cache else ""
            )
            print(
                f"[exec] {stats['total']} runs: {stats['from_cache']} from cache, "
                f"{stats['computed']} computed, workers={stats['workers']}"
                f"{cache_note}"
            )
        return dict(zip((key for key, _ in keyed_specs), sweep.runs)), stats
