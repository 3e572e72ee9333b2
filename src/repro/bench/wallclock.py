"""OSU-style wall-clock micro-harness for the simulator core.

Every figure reproduction funnels through ``Engine.run`` / ``Fabric.transmit``;
this module measures how fast that hot path executes in *wall-clock* terms so
simulator-core optimizations (and regressions) are visible across PRs.

The harness times :func:`~repro.collectives.runner.run_allgather` for all
three allgather algorithms over a size/topology grid drawn from the Fig. 5
configuration (same seed, same Erdos-Renyi topologies, same machine shape)
and reports median-of-k wall seconds plus simulated messages per wall second.

Correctness is asserted, not assumed:

* every repeat of a case must produce a bit-identical ``simulated_time``
  (the engine is deterministic by contract);
* a ``trace=True`` run must produce the same ``simulated_time`` and message
  count as ``trace=False`` (tracing must never perturb timing);
* when the archived Fig. 5 rows (``results_medium/fig5_speedup_scaling.json``)
  cover a case, the measured ``simulated_time`` must equal the archived value
  bit-for-bit — the optimized fast path must not change simulation results;
* when a recorded baseline (``benchmarks/baseline_sim_core.json``) is
  present, current ``simulated_time`` values must be bit-identical to the
  baseline's, and the report includes the wall-time speedup against it.

Output is written to ``BENCH_sim_core.json`` (override with ``out_path``).
Run via ``python -m repro bench --wallclock [--smoke]``.
"""

from __future__ import annotations

import cProfile
import json
import pstats
import statistics
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

from repro.bench.config import BenchScale, bench_machine, get_scale
from repro.bench.reporting import format_table, geometric_mean
from repro.collectives.base import algorithm_info, get_algorithm, list_algorithms
from repro.collectives.runner import RunOptions, run_allgather
from repro.sim.plancache import plan_cache_stats
from repro.topology.random_graphs import erdos_renyi_topology
from repro.utils.sizes import format_size, parse_size

#: All bench-enrolled allgather algorithms, timed per case.
ALGORITHMS = tuple(info.name for info in list_algorithms(requires={"bench"}))
#: Topology seed — matches the Fig. 5 driver so archived rows are comparable.
FIG5_SEED = 23
#: Fixed Common Neighbor K (Fig. 5 sweeps K; the registry's bench pin
#: fixes it here for speed).
CN_K = dict(algorithm_info("common_neighbor").bench_kwargs)["k"]
#: Grid subset of the Fig. 5 configuration used for the full harness run.
FULL_DENSITIES = (0.1, 0.3)
FULL_SIZES = ("8", "8KB", "512KB")
#: Valid per-case timing modes (see :class:`WallclockCase.sim_mode`).
SIM_MODES = ("compare", "des", "auto")
#: Paper-scale communicator sizes (Fig. 5 x-axis), with the socket widths
#: that tile them into 2-socket nodes (2048 is the Moore-graph size).
PAPER_RANKS = ((2160, 18), (2048, 16), (1080, 18), (540, 18))

_REPO_ROOT = Path(__file__).resolve().parents[3]
#: Recorded pre-optimization wall/sim numbers (committed; same-host medians).
DEFAULT_BASELINE = _REPO_ROOT / "benchmarks" / "baseline_sim_core.json"
#: Archived Fig. 5 medium rows from the seed engine — the golden sim times.
DEFAULT_GOLDEN = _REPO_ROOT / "results_medium" / "fig5_speedup_scaling.json"


@dataclass(frozen=True)
class WallclockCase:
    """One (algorithm, communicator, density, size) cell of the grid.

    ``sim_mode`` selects what gets timed: ``"compare"`` times the DES and
    the hybrid fast path back to back (asserting bit-identical simulation
    results), ``"des"``/``"auto"`` time a single path.  Paper-scale cases
    use ``"auto"`` — a 2160-rank DES run is minutes of wall clock, which is
    exactly what the hybrid path exists to avoid.
    """

    algorithm: str
    ranks: int
    ranks_per_socket: int
    density: float
    msg_bytes: int
    sim_mode: str = "compare"

    def __post_init__(self) -> None:
        if self.sim_mode not in SIM_MODES:
            raise ValueError(
                f"sim_mode must be one of {SIM_MODES}, got {self.sim_mode!r}"
            )

    @property
    def key(self) -> tuple:
        return (self.algorithm, self.ranks, self.density, self.msg_bytes)

    def label(self) -> str:
        return (
            f"{self.algorithm} n={self.ranks} d={self.density} "
            f"m={format_size(self.msg_bytes)}"
        )


@dataclass
class CaseResult:
    """Timing + invariants for one case over ``repeats`` runs.

    ``wall_seconds`` holds the primary path's walls (the DES for
    ``"compare"``/``"des"`` cases, the hybrid path for ``"auto"`` cases);
    ``wall_seconds_auto`` holds the hybrid walls of a ``"compare"`` case.
    ``sim_path`` records the path the hybrid run took (``"fastpath"``
    exact replay, or ``"des"`` when the run was not eligible).
    """

    case: WallclockCase
    simulated_time: float
    messages_sent: int
    wall_seconds: list[float] = field(default_factory=list)
    wall_seconds_auto: list[float] | None = None
    sim_path: str | None = None
    profile: list[dict[str, Any]] | None = None

    @property
    def wall_median(self) -> float:
        return statistics.median(self.wall_seconds)

    @property
    def wall_median_auto(self) -> float | None:
        if not self.wall_seconds_auto:
            return None
        return statistics.median(self.wall_seconds_auto)

    @property
    def speedup_auto(self) -> float | None:
        """Hybrid-path speedup over the DES for ``"compare"`` cases."""
        auto = self.wall_median_auto
        if auto is None or auto <= 0:
            return None
        return self.wall_median / auto

    @property
    def sim_messages_per_sec(self) -> float:
        """Simulated messages moved per wall second — the throughput metric."""
        med = self.wall_median
        return self.messages_sent / med if med > 0 else float("inf")

    def to_record(self) -> dict[str, Any]:
        record = {
            "algorithm": self.case.algorithm,
            "ranks": self.case.ranks,
            "density": self.case.density,
            "msg_bytes": self.case.msg_bytes,
            "sim_mode": self.case.sim_mode,
            "simulated_time": self.simulated_time,
            "messages_sent": self.messages_sent,
            "wall_median": self.wall_median,
            "wall_seconds": self.wall_seconds,
            "sim_messages_per_sec": self.sim_messages_per_sec,
        }
        if self.sim_path is not None:
            record["sim_path"] = self.sim_path
        if self.wall_seconds_auto:
            record["wall_seconds_auto"] = self.wall_seconds_auto
            record["wall_median_auto"] = self.wall_median_auto
            record["speedup_auto"] = self.speedup_auto
        if self.profile is not None:
            record["profile"] = self.profile
        return record


def build_cases(scale: BenchScale, smoke: bool = False,
                sim_mode: str = "compare") -> list[WallclockCase]:
    """The harness grid: a Fig. 5-shaped subset at the given scale.

    ``smoke`` shrinks to a two-node machine and one (density, size) cell so
    the harness itself can run inside the tier-1 test suite in well under a
    second per algorithm.  ``sim_mode`` is stamped on every case (see
    :class:`WallclockCase`).
    """
    if smoke:
        ranks = 4 * scale.ranks_per_socket  # two nodes x two sockets
        grid = [(ranks, 0.3, "1KB")]
    else:
        grid = [
            (scale.ranks, d, s) for d in FULL_DENSITIES for s in FULL_SIZES
        ]
    return [
        WallclockCase(alg, ranks, scale.ranks_per_socket, density,
                      parse_size(size), sim_mode=sim_mode)
        for (ranks, density, size) in grid
        for alg in ALGORITHMS
    ]


def paper_scale_cases(repeats_density: float = 0.3,
                      size: str = "8KB") -> list[WallclockCase]:
    """Hybrid-path cases at the paper's Fig. 5 communicator sizes.

    These run ``sim_mode="auto"`` only: the point is that the hybrid path
    makes the 540-2160-rank sweep wall-clock tolerable, and a DES
    comparison at 2160 ranks would take minutes per cell.  Sim-time
    correctness at these scales is covered by the hybrid/DES equivalence
    property suite at smaller sizes plus the golden medium-grid check.
    """
    return [
        WallclockCase(alg, ranks, rps, repeats_density, parse_size(size),
                      sim_mode="auto")
        for (ranks, rps) in PAPER_RANKS
        for alg in ALGORITHMS
    ]


#: Rows kept per case when profiling (`--profile`): the top N by cumulative
#: time, which is where a fast-path cost claim lives.
PROFILE_TOP_N = 15


def _profile_rows(pr: cProfile.Profile, top_n: int = PROFILE_TOP_N) -> list[dict]:
    """The top-N functions of a finished profile, as JSON-friendly rows.

    Rows are sorted by cumulative time; file paths are trimmed to their
    ``repro``-relative tail so payloads are host-independent and diffable.
    """
    stats = pstats.Stats(pr)
    rows = []
    for (filename, line, name), (_cc, ncalls, tottime, cumtime, _callers) \
            in stats.stats.items():  # type: ignore[attr-defined]
        parts = filename.replace("\\", "/").split("/")
        if "repro" in parts:
            filename = "/".join(parts[parts.index("repro"):])
        elif len(parts) > 2:
            filename = "/".join(parts[-2:])
        rows.append({
            "function": f"{filename}:{line}({name})" if line else f"{filename}({name})",
            "ncalls": ncalls,
            "tottime": tottime,
            "cumtime": cumtime,
        })
    rows.sort(key=lambda r: r["cumtime"], reverse=True)
    return rows[:top_n]


def _run_case(case: WallclockCase, repeats: int, check_trace: bool,
              profile: bool = False) -> CaseResult:
    machine = bench_machine(case.ranks, case.ranks_per_socket)
    topology = erdos_renyi_topology(case.ranks, case.density, seed=FIG5_SEED)
    kwargs = dict(algorithm_info(case.algorithm).bench_kwargs)
    algorithm = get_algorithm(case.algorithm, **kwargs)
    algorithm.setup(topology, machine)  # pay pattern creation once, outside timing

    primary = "auto" if case.sim_mode == "auto" else "des"
    options = RunOptions(sim_mode=primary)
    result: CaseResult | None = None
    for _ in range(repeats):
        run = run_allgather(algorithm, topology, machine, case.msg_bytes,
                            options=options)
        if result is None:
            result = CaseResult(case, run.simulated_time, run.messages_sent)
            if primary == "auto":
                result.sim_path = run.sim_path
        elif run.simulated_time != result.simulated_time:
            raise RuntimeError(
                f"non-deterministic simulated_time for {case.label()}: "
                f"{run.simulated_time!r} != {result.simulated_time!r}"
            )
        result.wall_seconds.append(run.wall_time)

    if case.sim_mode == "compare":
        # Time the hybrid path against the DES walls just measured, and
        # assert the two paths agree bit-for-bit — the harness is also the
        # accuracy gate for sim_mode="auto" on the real bench grid.
        auto_options = RunOptions(sim_mode="auto")
        result.wall_seconds_auto = []
        for _ in range(repeats):
            run = run_allgather(algorithm, topology, machine, case.msg_bytes,
                                options=auto_options)
            if result.sim_path is None:
                result.sim_path = run.sim_path
            if (
                run.simulated_time != result.simulated_time
                or run.messages_sent != result.messages_sent
            ):
                raise RuntimeError(
                    f"hybrid path diverged from the DES for {case.label()}: "
                    f"auto ({run.simulated_time!r}, {run.messages_sent}) vs "
                    f"des ({result.simulated_time!r}, {result.messages_sent})"
                )
            result.wall_seconds_auto.append(run.wall_time)

    if profile:
        # One extra run under cProfile, never one of the timed repeats.
        # Profile the hybrid path when the case exercises it (that is where
        # a fast-path cost claim lives), the DES otherwise.
        prof_options = (RunOptions(sim_mode="auto")
                        if case.sim_mode in ("compare", "auto") else options)
        pr = cProfile.Profile()
        pr.enable()
        run_allgather(algorithm, topology, machine, case.msg_bytes,
                      options=prof_options)
        pr.disable()
        result.profile = _profile_rows(pr)

    if check_trace:
        traced = run_allgather(
            algorithm, topology, machine, case.msg_bytes,
            options=RunOptions(trace=True),
        )
        if (
            traced.simulated_time != result.simulated_time
            or traced.messages_sent != result.messages_sent
        ):
            raise RuntimeError(
                f"tracing perturbed the simulation for {case.label()}: "
                f"traced ({traced.simulated_time!r}, {traced.messages_sent}) vs "
                f"plain ({result.simulated_time!r}, {result.messages_sent})"
            )
    return result


def _load_reference(path: Path, what: str) -> dict[str, Any]:
    """Read a reference JSON payload; corrupt files are operator errors.

    A *missing* reference is fine (the check is skipped by the caller), but
    an unreadable or syntactically invalid file must fail with one clear
    message instead of a JSON traceback — the CLI turns this into a
    non-zero exit.
    """
    try:
        payload = json.loads(path.read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise ValueError(f"corrupt or unreadable {what} file {path}: {exc}") from exc
    if not isinstance(payload, dict):
        raise ValueError(
            f"corrupt {what} file {path}: expected a JSON object, "
            f"got {type(payload).__name__}"
        )
    return payload


def _check_golden(results: list[CaseResult], golden_path: Path) -> dict[str, Any] | None:
    """Assert bit-identical sim times against the archived Fig. 5 rows."""
    if not golden_path.is_file():
        return None
    payload = _load_reference(golden_path, "golden Fig. 5")
    by_cell: dict[tuple, dict] = {
        (row["ranks"], row["density"], row["msg_size"]): row
        for row in payload.get("rows", [])
    }
    column = {"naive": "naive_time", "distance_halving": "dh_time"}
    checked = 0
    mismatches = []
    for res in results:
        case = res.case
        col = column.get(case.algorithm)
        row = by_cell.get((case.ranks, case.density, case.msg_bytes))
        if col is None or row is None:
            continue  # CN uses a pinned K here; best-K archived rows differ
        checked += 1
        if res.simulated_time != row[col]:
            mismatches.append(
                f"{case.label()}: got {res.simulated_time!r}, "
                f"archived {row[col]!r}"
            )
    if mismatches:
        raise RuntimeError(
            "simulated_time diverged from the archived Fig. 5 results "
            f"({golden_path}):\n  " + "\n  ".join(mismatches)
        )
    return {"path": str(golden_path), "checked_rows": checked, "identical": True}


def _check_baseline(
    results: list[CaseResult], baseline_path: Path
) -> dict[str, Any] | None:
    """Assert sim-time equivalence with the recorded baseline; report speedup."""
    if not baseline_path.is_file():
        return None
    payload = _load_reference(baseline_path, "baseline")
    by_key = {
        (r["algorithm"], r["ranks"], r["density"], r["msg_bytes"]): r
        for r in payload.get("cases", [])
    }
    mismatches, speedups = [], []
    base_total = cur_total = 0.0
    checked = 0
    for res in results:
        base = by_key.get(res.case.key)
        if base is None:
            continue
        checked += 1
        if res.simulated_time != base["simulated_time"]:
            mismatches.append(
                f"{res.case.label()}: got {res.simulated_time!r}, "
                f"baseline {base['simulated_time']!r}"
            )
        base_total += base["wall_median"]
        cur_total += res.wall_median
        if res.wall_median > 0:
            speedups.append(base["wall_median"] / res.wall_median)
    if mismatches:
        raise RuntimeError(
            f"simulated_time diverged from the baseline ({baseline_path}):\n  "
            + "\n  ".join(mismatches)
        )
    if checked == 0:
        return None
    return {
        "path": str(baseline_path),
        "checked_cases": checked,
        "sim_time_identical": True,
        "baseline_total_wall": base_total,
        "current_total_wall": cur_total,
        "speedup_total": base_total / cur_total if cur_total > 0 else float("inf"),
        "speedup_geomean": geometric_mean(speedups) if speedups else float("nan"),
    }


def wallclock_bench(
    scale: BenchScale | None = None,
    repeats: int = 3,
    smoke: bool = False,
    out_path: str | Path | None = "BENCH_sim_core.json",
    baseline_path: str | Path | None = None,
    golden_path: str | Path | None = None,
    record_baseline: bool = False,
    verbose: bool = False,
    sim_mode: str = "compare",
    paper_scales: bool = False,
    profile: bool = False,
) -> dict[str, Any]:
    """Run the wall-clock harness; returns (and writes) the report payload.

    ``record_baseline=True`` writes the measurements to ``baseline_path``
    (default ``benchmarks/baseline_sim_core.json``) instead of comparing
    against it — run this once *before* an optimization lands, on the same
    host that will evaluate it.

    ``sim_mode`` selects the per-case timing mode for the grid cases
    (``"compare"`` times DES and hybrid back to back; ``"des"``/``"auto"``
    time one path).  ``paper_scales=True`` appends hybrid-only cases at the
    paper's 540/1080/2048/2160-rank communicator sizes.

    ``profile=True`` adds one cProfile'd (untimed) hybrid run per case and
    attaches the top-:data:`PROFILE_TOP_N`-by-cumulative-time table to each
    case record (``"profile"``) — the reproducible form of any claim about
    where simulator-core wall time goes.

    The payload always carries a ``"plan_cache"`` block: the process-wide
    compiled-plan cache counters (see :mod:`repro.sim.plancache`) after the
    run, which is how cross-run plan reuse on the grid is made visible.
    """
    if repeats < 1:
        raise ValueError(f"repeats must be >= 1, got {repeats}")
    if sim_mode not in SIM_MODES:
        raise ValueError(f"sim_mode must be one of {SIM_MODES}, got {sim_mode!r}")
    scale = scale or get_scale()
    baseline_path = Path(baseline_path) if baseline_path else DEFAULT_BASELINE
    golden_path = Path(golden_path) if golden_path else DEFAULT_GOLDEN

    cases = build_cases(scale, smoke=smoke, sim_mode=sim_mode)
    if paper_scales:
        cases.extend(paper_scale_cases())
    results: list[CaseResult] = []
    for i, case in enumerate(cases):
        # Trace invariance is cheap at smoke size (check every case); at full
        # size one case suffices — the property suite covers the rest.
        check_trace = smoke or i == 0
        results.append(_run_case(case, repeats, check_trace, profile=profile))
        if verbose:
            res = results[-1]
            auto = (f"  auto={res.wall_median_auto * 1e3:8.2f} ms "
                    f"({res.speedup_auto:.2f}x)"
                    if res.wall_median_auto is not None else "")
            print(
                f"  {case.label():<48} wall={res.wall_median * 1e3:8.2f} ms  "
                f"{res.sim_messages_per_sec / 1e3:8.1f} kmsg/s{auto}"
            )

    payload: dict[str, Any] = {
        "experiment": "sim_core_wallclock",
        "scale": scale.name,
        "smoke": smoke,
        "repeats": repeats,
        "seed": FIG5_SEED,
        "cn_k": CN_K,
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S"),
        "sim_mode": sim_mode,
        "total_wall_median": sum(r.wall_median for r in results),
        "total_messages": sum(r.messages_sent for r in results),
        "cases": [r.to_record() for r in results],
        # Process-wide compiled-plan cache counters after the grid: repeats
        # and schedule-shape-sharing cells all land here as hits.
        "plan_cache": plan_cache_stats(),
    }
    compared = [r for r in results if r.wall_median_auto is not None]
    if compared:
        des_total = sum(r.wall_median for r in compared)
        auto_total = sum(r.wall_median_auto for r in compared)
        payload["hybrid"] = {
            "compared_cases": len(compared),
            "des_total_wall": des_total,
            "auto_total_wall": auto_total,
            "speedup_auto_total": (des_total / auto_total
                                   if auto_total > 0 else float("inf")),
            "speedup_auto_geomean": geometric_mean(
                [r.speedup_auto for r in compared if r.speedup_auto]
            ),
            "sim_time_identical": True,  # asserted per repeat in _run_case
        }

    if record_baseline:
        baseline_path.parent.mkdir(parents=True, exist_ok=True)
        baseline_path.write_text(json.dumps(payload, indent=2))
        if verbose:
            print(f"baseline recorded -> {baseline_path}")
        return payload

    golden = _check_golden(results, golden_path) if not smoke else None
    if golden:
        payload["golden_fig5"] = golden
    baseline = _check_baseline(results, baseline_path)
    if baseline:
        payload["baseline"] = baseline

    if out_path is not None:
        Path(out_path).write_text(json.dumps(payload, indent=2))

    if verbose:
        rows = [
            (r.case.algorithm, r.case.ranks, r.case.density,
             format_size(r.case.msg_bytes), r.wall_median * 1e3,
             r.sim_messages_per_sec / 1e3)
            for r in results
        ]
        print()
        print(format_table(
            ["algorithm", "ranks", "density", "msg", "wall (ms)", "kmsg/s"],
            rows,
            title=f"sim-core wallclock ({scale.name}{', smoke' if smoke else ''})",
        ))
        if golden:
            print(f"golden Fig.5 check : {golden['checked_rows']} rows bit-identical")
        hybrid = payload.get("hybrid")
        if hybrid:
            print(
                f"hybrid speedup     : {hybrid['speedup_auto_total']:.2f}x total "
                f"({hybrid['speedup_auto_geomean']:.2f}x geomean) over "
                f"{hybrid['compared_cases']} compared cases, sim times bit-identical"
            )
        if baseline:
            print(
                f"baseline speedup   : {baseline['speedup_total']:.2f}x total "
                f"({baseline['speedup_geomean']:.2f}x geomean) over "
                f"{baseline['checked_cases']} cases, sim times bit-identical"
            )
        pc = payload["plan_cache"]
        print(
            f"plan cache         : {pc['hits']} hits / {pc['misses']} misses "
            f"(hit rate {pc['hit_rate']:.2f}), {pc['size']} entries, "
            f"{pc['evictions']} evictions"
        )
        if profile:
            for r in results:
                if not r.profile:
                    continue
                print()
                print(format_table(
                    ["ncalls", "tottime (s)", "cumtime (s)", "function"],
                    [(row["ncalls"], f"{row['tottime']:.4f}",
                      f"{row['cumtime']:.4f}", row["function"])
                     for row in r.profile],
                    title=f"profile: {r.case.label()}",
                ))
    return payload
