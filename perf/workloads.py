"""The benchmark's workloads: which cells run, generated from a seed.

A *cell* is one :class:`repro.exec.RunSpec` plus a label.  A workload is a
list of *rounds*; each round is the workload's whole grid with fresh
topology seeds, so a cold workload stays cold however many rounds run.
``--seconds`` fixes the number of rounds through each workload's nominal
round time, not through a clock, so a run's work -- and with it its
memory and its sample counts -- is the same on every machine and every
commit.

The algorithm names and constructor arguments are pinned here rather than
read from the program's registry, so that a change to the program cannot
silently change what the benchmark runs.  Why each workload exists is
recorded in BENCHMARK.json and README.md.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable, NamedTuple

from repro.exec import MachineSpec, RunOptions, RunSpec, TopologySpec
from repro.sim.faults import CRASH_PROFILE_MODES, PROFILE_NAMES, resilience_profiles

#: The registry's bench set when the benchmark was defined.
ALGORITHMS = (
    ("naive", {}),
    ("common_neighbor", {"k": 4}),
    ("distance_halving", {}),
    ("bruck", {}),
)
FIG5_SIZES = ("8", "1KB", "8KB", "64KB", "512KB")
WARM_SIZES = ("8", "128", "1KB", "8KB", "64KB", "512KB", "4MB")
WARM_REPEATS = 4
#: Fault-cell watchdogs, as the resilience study sets them.
MAX_SIM_TIME = 5.0
MAX_EVENTS_PER_MESSAGE = 200

FAST = RunOptions(sim_mode="auto", verify=True)


class Cell(NamedTuple):
    label: str
    spec: RunSpec


def derive_seed(*parts) -> int:
    """A 31-bit seed from the run seed and a cell's coordinates."""
    return random.Random(":".join(map(str, parts))).randrange(2**31)


def pattern(spec: RunSpec) -> tuple:
    """What an algorithm instance is set up for: the setup() inputs."""
    return spec.algorithm, spec.algorithm_kwargs, spec.topology, spec.machine


def _random_graph(n: int, density: float, seed: int) -> TopologySpec:
    return TopologySpec("random", n, density=density, seed=seed)


def _cell(algorithm, kwargs, topology, ranks_per_socket, size, options=FAST, note=""):
    spec = RunSpec(
        algorithm, topology,
        MachineSpec.for_ranks(topology.n, ranks_per_socket),
        size, algorithm_kwargs=kwargs, options=options,
    )
    density = f" d={topology.density}" if topology.density is not None else ""
    return Cell(f"{spec.label()}{density}{note}", spec)


def _fig5_cold(seed, r, smoke):
    n, rps, densities, sizes = (
        (48, 12, (0.1, 0.3), ("8", "64KB")) if smoke
        else (264, 12, (0.05, 0.1, 0.2, 0.3), FIG5_SIZES)
    )
    cells = []
    for di, density in enumerate(densities):
        topology = _random_graph(n, density, derive_seed(seed, "fig5_cold", r, di))
        for size in sizes:
            for name, kwargs in (*ALGORITHMS, ("auto", {})):
                cells.append(_cell(name, kwargs, topology, rps, size))
    return cells


def _msgsize_warm(seed, r, smoke):
    n, rps, densities, sizes, repeats = (
        (48, 12, (0.3,), ("8", "64KB"), 2) if smoke
        else (336, 12, (0.1, 0.3), WARM_SIZES, WARM_REPEATS)
    )
    cells = []
    for di, density in enumerate(densities):
        topology = _random_graph(n, density, derive_seed(seed, "msgsize_warm", r, di))
        for name, kwargs in ALGORITHMS:
            for size in sizes:
                cells.extend([_cell(name, kwargs, topology, rps, size)] * repeats)
    return cells


def _fault_options(plan, profile, n):
    return RunOptions(
        fault_plan=plan,
        fallback="naive" if plan is not None else None,
        max_sim_time=MAX_SIM_TIME,
        max_events=MAX_EVENTS_PER_MESSAGE * n * n,
        verify=True,
        on_failure=CRASH_PROFILE_MODES.get(profile, "abort"),
    )


def _des_faults(seed, r, smoke):
    # The denser graph runs first: its cells set the heap's high-water mark
    # early, so peak RSS does not hinge on where a late crash cell's
    # transient allocations land (with 0.1 first it spread 4.6% over seeds
    # at 256 ranks).
    n, rps, densities, sizes = (
        (32, 8, (0.3,), ("1KB",)) if smoke else (240, 8, (0.3, 0.1), ("1KB", "64KB"))
    )
    plans = resilience_profiles(n, seed=derive_seed(seed, "des_faults", r))
    cells = []
    for di, density in enumerate(densities):
        topology = _random_graph(n, density, derive_seed(seed, "des_faults", r, di))
        for size in sizes:
            for name, kwargs in ALGORITHMS:
                for profile in PROFILE_NAMES:
                    plan = None if profile == "clean" else plans[profile]
                    cells.append(_cell(name, kwargs, topology, rps, size,
                                       _fault_options(plan, profile, n), f" [{profile}]"))
    return cells


@dataclass(frozen=True)
class Workload:
    #: ``build(seed, round, smoke)`` -> the round's cells.
    build: Callable[[int, int, bool], list[Cell]]
    #: Wall time of one round on the reference machine (2-core VM); sets
    #: how many rounds ``--seconds`` buys.
    round_seconds: float
    #: Warm workloads call ``run_allgather`` on algorithm instances set up
    #: before timing starts; the others push every cell through
    #: ``repro.exec.execute`` with a result cache, from spec to stored result.
    warm: bool = False


WORKLOADS = {
    "fig5_cold": Workload(_fig5_cold, round_seconds=14.0),
    "msgsize_warm": Workload(_msgsize_warm, round_seconds=14.0, warm=True),
    "des_faults": Workload(_des_faults, round_seconds=15.0),
}


def rounds_for(name: str, seconds: float) -> int:
    """Rounds a run of ``seconds`` executes (at least one)."""
    return max(1, round(seconds / WORKLOADS[name].round_seconds))


def build_rounds(name: str, seed: int, rounds: int, smoke: bool = False) -> list[list[Cell]]:
    """The workload's cells, round by round (deterministic in ``seed``)."""
    build = WORKLOADS[name].build
    return [build(seed, r, smoke) for r in range(rounds)]


def setup_targets(name: str, seed: int, smoke: bool = False) -> list[tuple]:
    """The distinct patterns of the first round, whose creation setup_s times.

    ``auto`` is left out: its setup is that of the algorithm it picks.
    """
    patterns = (pattern(spec) for _, spec in WORKLOADS[name].build(seed, 0, smoke))
    return list(dict.fromkeys(p for p in patterns if p[0] != "auto"))


def reference_key(name: str, seed: int, r: int | None, label: str) -> str:
    """A cell's identity in ``reference.json``: workload, seed, round, label.

    ``r`` is None for the smoke variant.  The key is the benchmark's own,
    not the program's spec digest, so a change to how the program encodes
    a spec cannot un-check a cell.
    """
    return f"{name}/{seed}/{'smoke' if r is None else r}/{label}"
