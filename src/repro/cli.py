"""Command-line interface: ``python -m repro <command>``.

Commands
--------

``info``
    Version, registered algorithms, benchmark scales.
``calibrate``
    Simulated ping-pong and the fitted Hockney (alpha, beta).
``compare``
    Run every oracle-capable allgather algorithm (or a ``--algorithms``
    subset) on one workload and print the comparison table (latency,
    speedup, message counts); ``--collective alltoall`` compares the
    alltoall algorithms instead, and rejects the allgather-only fault and
    watchdog flags.
``model``
    Evaluate the paper's performance model (Fig. 2 grid) at paper scale.
``spmm``
    Run the SpMM kernel for one or all Table II matrices.
``bench``
    Regenerate one paper figure (or ``all``) at the selected scale; with
    ``--wallclock`` run the sim-core harness, with ``--resilience`` the
    per-algorithm fault-injection study, with ``--sweep-smoke`` or
    ``--paper-smoke`` a fixed orchestrated smoke grid (prints cache/worker
    statistics, for CI).  Figure sweeps run through the :mod:`repro.exec`
    orchestrator: ``--workers N`` fans specs over a process pool and the
    content-addressed result cache (on by default; ``--no-cache`` /
    ``--cache-dir`` control it) answers previously-computed cells without
    re-simulating.  Parallel and cached reruns are bit-identical to serial
    cold runs.  A flag the selected mode does not read exits 2 with a
    one-line error naming the modes that take it.
``advise``
    Adaptive selection (:mod:`repro.select`).  ``--algorithm`` resolves
    ``algorithm="auto"`` for one described workload and prints the
    extracted features, the decision-table ranking, and the model's
    predicted crossovers; ``--distill`` rebuilds the decision table from
    the analytic prior plus the (cached) empirical grid; ``--regret``
    replays seeded fuzz scenarios under ``auto`` vs the oracle best and
    gates the geomean regret (exit 1 on a gate failure).
``fuzz``
    Differential conformance fuzzer (:mod:`repro.verify`): random
    scenarios through every oracle-capable algorithm with metamorphic
    invariants and trace conservation laws; failures are shrunk and
    written as replayable
    repro files (``--replay`` re-checks one).  ``--inject-bug`` is the
    mutation self-test proving the pipeline catches a planted defect.
    ``--profile crash`` draws fail-stop rank crashes and checks the
    shrink/degrade recovery oracles.
``chaos``
    Exec-layer chaos harness (:mod:`repro.exec.chaos`): real sweeps with
    injected worker kills (``--kill-workers``), manifest truncation, and
    cache corruption; asserts isolated retry, poison-spec quarantine, and
    manifest-based resume with zero recomputed specs.

Simulation failures (``DeadlockError``, ``SimTimeoutError``,
``RankFailedError``, ``RetriesExhaustedError``) exit non-zero with a
one-line diagnostic instead of a traceback; ``--max-sim-time`` /
``--max-events`` arm the engine watchdog.
"""

from __future__ import annotations

import argparse
import sys
from typing import Sequence

from repro.bench.config import get_scale
from repro.bench.reporting import format_table
from repro.sim.engine import (
    DeadlockError,
    RankFailedError,
    RetriesExhaustedError,
    SimTimeoutError,
)
from repro.sim.faults import CRASH_PROFILE_MODES, PROFILE_NAMES
from repro.verify.generators import PROFILES as FUZZ_PROFILES
from repro.utils.sizes import format_size, parse_size

_EXEC_FLAGS = ("--workers", "--cache-dir", "--no-cache")
#: What a figure that runs an orchestrated allgather grid reads.
_GRID_FLAGS = ("--scale", "--seed", "--sim-mode", *_EXEC_FLAGS)

#: Figure name -> (driver attribute in repro.bench.figures, the ``repro
#: bench`` flags that driver reads); ``all`` reads their union.  Moore
#: neighborhoods take no topology seed, fig7, fig8 and alltoall run
#: serially on the DES, outside the orchestrator, and networks runs
#: serially on either path (its fat-tree and torus machines are not
#: ``MachineSpec``s).
FIGURES = {
    "fig2": ("fig2_model", ("--scale",)),
    "fig4": ("fig4_latency", _GRID_FLAGS),
    "fig5": ("fig5_speedup_scaling", _GRID_FLAGS),
    "fig6": ("fig6_moore", ("--scale", "--sim-mode", *_EXEC_FLAGS)),
    "fig6-variance": ("fig6_variance_study", ("--scale", "--sim-mode", *_EXEC_FLAGS)),
    "fig7": ("fig7_spmm", ("--scale", "--seed")),
    "fig8": ("fig8_overhead", ("--scale", "--seed")),
    "alltoall": ("ext_alltoall", ("--scale", "--seed")),
    "networks": ("ext_network_sensitivity", ("--scale", "--seed", "--sim-mode")),
    "ablation-agent": ("ablation_agent_policy", _GRID_FLAGS),
    "ablation-stop": ("ablation_stop_granularity", _GRID_FLAGS),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Distance-halving neighborhood allgather (CLUSTER 2024) reproduction",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("info", help="version, algorithms, scales")

    cal = sub.add_parser("calibrate", help="simulated ping-pong + Hockney fit")
    _machine_args(cal)

    cmp_p = sub.add_parser("compare", help="compare algorithms on one workload")
    _machine_args(cmp_p)
    cmp_p.add_argument("--topology", choices=("random", "moore", "cartesian"),
                       default="random")
    cmp_p.add_argument("--density", type=float, default=0.3,
                       help="edge probability for random topologies")
    cmp_p.add_argument("--radius", type=int, default=1, help="Moore radius r")
    cmp_p.add_argument("--dims", type=int, default=2, help="grid dimensionality d")
    cmp_p.add_argument("--msg", default="4KB", help="message size (e.g. 64, 4KB, 1MB)")
    cmp_p.add_argument("--seed", type=int, default=0)
    cmp_p.add_argument("--collective", choices=("allgather", "alltoall"),
                       default="allgather")
    cmp_p.add_argument("--algorithms", default=None, metavar="NAME[,NAME...]",
                       help="comma-separated algorithms to compare, the first "
                            "the speedup baseline (default: every oracle-"
                            "capable allgather algorithm, or every alltoall "
                            "algorithm with naive first)")
    cmp_p.add_argument("--faults", choices=PROFILE_NAMES, default=None,
                       help="inject a named fault profile (allgather only); "
                            "degraded setups fall back to naive")
    cmp_p.add_argument("--max-sim-time", type=float, default=None,
                       help="watchdog: abort once simulated time exceeds this "
                            "many seconds (allgather only)")
    cmp_p.add_argument("--max-events", type=int, default=None,
                       help="watchdog: abort after this many engine events "
                            "(allgather only)")

    model_p = sub.add_parser("model", help="performance-model grid (Fig. 2)")
    _machine_args(model_p)

    an_p = sub.add_parser("analyze", help="topology diagnostics + DH pattern preview")
    _machine_args(an_p)
    an_p.add_argument("--topology", choices=("random", "moore", "cartesian"),
                      default="random")
    an_p.add_argument("--density", type=float, default=0.3)
    an_p.add_argument("--radius", type=int, default=1)
    an_p.add_argument("--dims", type=int, default=2)
    an_p.add_argument("--seed", type=int, default=0)

    spmm_p = sub.add_parser("spmm", help="SpMM kernel on Table II matrices")
    _machine_args(spmm_p)
    spmm_p.add_argument("matrices", nargs="*", help="matrix names (default: all)")
    spmm_p.add_argument("--cols", type=int, default=8, help="columns of Y")

    bench_p = sub.add_parser("bench", help="regenerate a paper figure")
    bench_p.add_argument("figure", nargs="?", choices=sorted(FIGURES) + ["all"],
                         help="figure to regenerate (omit with a mode flag: "
                              "--wallclock, --resilience, --sweep-smoke, "
                              "--paper-smoke)")
    bench_p.add_argument("--scale", choices=("small", "medium", "large", "paper"),
                         default=None)
    bench_p.add_argument("--wallclock", action="store_true",
                         help="run the sim-core wall-clock harness instead of a figure")
    bench_p.add_argument("--resilience", action="store_true",
                         help="run the fault-injection resilience study instead "
                              "of a figure")
    bench_p.add_argument("--smoke", action="store_true",
                         help="tiny wallclock/resilience grid (for CI); makes "
                              "--repeats default to 1")
    bench_p.add_argument("--repeats", type=int, default=None,
                         help="wallclock median-of-k repeats (default 3, or 1 "
                              "with --smoke)")
    bench_p.add_argument("--out", default=None,
                         help="report path (default BENCH_sim_core.json for "
                              "--wallclock, BENCH_resilience.json for --resilience)")
    bench_p.add_argument("--record-baseline", action="store_true",
                         help="record wallclock measurements as the new baseline")
    bench_p.add_argument("--sim-mode", choices=("compare", "des", "auto"),
                         default=None,
                         help="figures: run the DES (default) or the hybrid "
                              "fast path (auto); wallclock: compare DES vs "
                              "the fast path (default), or time one path")
    bench_p.add_argument("--paper-scales", action="store_true",
                         help="append hybrid-only wallclock cases at the "
                              "paper's 540/1080/2048/2160-rank sizes")
    bench_p.add_argument("--seed", type=int, default=None,
                         help="override the driver's default topology seed")
    bench_p.add_argument("--workers", type=int, default=None,
                         help="process-pool width for orchestrated sweeps "
                              "(default 1 = serial; simulated times are "
                              "bit-identical either way)")
    bench_p.add_argument("--cache-dir", default=None,
                         help="result-cache directory (default: "
                              "$REPRO_CACHE_DIR or ~/.cache/repro)")
    bench_p.add_argument("--no-cache", action="store_true",
                         help="disable the content-addressed result cache")
    bench_p.add_argument("--sweep-smoke", action="store_true",
                         help="run the tiny orchestrated smoke sweep and "
                              "print execution/cache statistics")
    bench_p.add_argument("--paper-smoke", action="store_true",
                         help="run the reduced 2160-rank Fig. 5 slice in "
                              "hybrid (auto) mode and print execution/cache "
                              "statistics")
    bench_p.add_argument("--min-cache-hit-rate", type=float, default=None,
                         help="with --sweep-smoke/--paper-smoke: exit 1 if "
                              "the cache hit rate falls below this fraction")
    bench_p.add_argument("--max-wall-seconds", type=float, default=None,
                         help="with --sweep-smoke/--paper-smoke: exit 1 if "
                              "the sweep's wall clock exceeds this budget")
    bench_p.add_argument("--profile", action="store_true",
                         help="with --wallclock: cProfile one hybrid run per "
                              "case and attach the top-N table to the report")
    bench_p.add_argument("--max-auto-wall-kernels", type=float, default=None,
                         help="with --wallclock: exit 1 if the hybrid path's "
                              "total wall time exceeds this many calibration-"
                              "kernel times")
    bench_p.add_argument("--min-plan-cache-hit-rate", type=float, default=None,
                         help="with --wallclock: exit 1 if the compiled-plan "
                              "cache hit rate falls below this fraction")

    adv_p = sub.add_parser(
        "advise", help="adaptive algorithm selection (repro.select)")
    mode = adv_p.add_mutually_exclusive_group(required=True)
    mode.add_argument("--algorithm", action="store_true",
                      help="resolve algorithm=\"auto\" for one workload and "
                           "explain the pick (features, ranking, crossovers)")
    mode.add_argument("--distill", action="store_true",
                      help="re-distill the decision table from the analytic "
                           "prior plus the (cached) empirical sweep grid")
    mode.add_argument("--regret", action="store_true",
                      help="replay seeded fuzz scenarios under auto vs the "
                           "oracle best; exit 1 if a gate fails")
    _machine_args(adv_p)
    adv_p.add_argument("--topology", choices=("random", "moore", "cartesian"),
                       default="random")
    adv_p.add_argument("--density", type=float, default=0.3)
    adv_p.add_argument("--radius", type=int, default=1)
    adv_p.add_argument("--dims", type=int, default=2)
    adv_p.add_argument("--seed", type=int, default=0,
                       help="topology seed (--algorithm) or scenario "
                            "campaign seed (--regret)")
    adv_p.add_argument("--msg", default="4KB",
                       help="message size for --algorithm (e.g. 64, 4KB)")
    adv_p.add_argument("--faults", choices=PROFILE_NAMES, default=None,
                       help="resolve under a named fault profile "
                            "(--algorithm); restricts the candidate walk "
                            "to survivable algorithms")
    adv_p.add_argument("--workers", type=int, default=1,
                       help="process-pool width for --distill")
    adv_p.add_argument("--cache-dir", default=None,
                       help="result-cache directory for --distill (shares "
                            "cells with the bench sweep cache)")
    adv_p.add_argument("--no-cache", action="store_true",
                       help="disable the result cache for --distill")
    adv_p.add_argument("--out", default=None,
                       help="output path (--distill: table JSON, default "
                            "selection_table.json; --regret: report JSON, "
                            "default none)")
    adv_p.add_argument("--table", default=None,
                       help="decision-table JSON to resolve against "
                            "(default: $REPRO_SELECT_TABLE or the packaged "
                            "table)")
    adv_p.add_argument("--scenarios", type=int, default=120,
                       help="scenario count for --regret (default 120)")
    adv_p.add_argument("--profile", choices=FUZZ_PROFILES, default="clean",
                       help="scenario profile for --regret")
    adv_p.add_argument("--max-regret", type=float, default=1.10,
                       help="geomean regret gate for --regret (default "
                            "1.10; pass inf to gate only on survivability)")

    fuzz_p = sub.add_parser(
        "fuzz", help="differential conformance fuzzer (repro.verify)")
    fuzz_p.add_argument("--seed", type=int, default=0,
                        help="campaign seed; iteration i replays as "
                             "(seed, i) regardless of earlier iterations")
    fuzz_p.add_argument("--iterations", type=int, default=200,
                        help="scenarios to try (default 200)")
    fuzz_p.add_argument("--time-budget", type=float, default=None,
                        help="wall-clock budget in seconds (checked between "
                             "iterations; for CI smoke jobs)")
    fuzz_p.add_argument("--profile", choices=FUZZ_PROFILES,
                        default="clean",
                        help="clean: no fault plans, full metamorphic "
                             "battery; faulty: every scenario gets a random "
                             "fault plan and loss-accounting checks; crash: "
                             "fail-stop rank crashes with shrink/degrade "
                             "recovery oracles")
    fuzz_p.add_argument("--out-dir", default="fuzz-failures",
                        help="where shrunk repro files and pytest snippets "
                             "are written on failure")
    fuzz_p.add_argument("--no-shrink", action="store_true",
                        help="write the original failing scenario without "
                             "minimizing it first")
    fuzz_p.add_argument("--replay", metavar="REPRO_JSON", default=None,
                        help="replay a repro file instead of fuzzing; exits "
                             "1 while it still reproduces")
    fuzz_p.add_argument("--inject-bug", choices=("payload-corruption",),
                        default=None,
                        help="mutation self-test: wire a deliberate defect "
                             "into every trial and demand the fuzzer catches "
                             "and shrinks it")

    chaos_p = sub.add_parser(
        "chaos", help="exec-layer chaos harness (repro.exec.chaos)")
    chaos_p.add_argument("--iterations", type=int, default=3,
                         help="full battery repetitions (default 3)")
    chaos_p.add_argument("--workers", type=int, default=2,
                         help="pool width for the injected-failure sweeps")
    chaos_p.add_argument("--kill-workers", action="store_true",
                         help="enable the worker-kill and poison-quarantine "
                              "phases (spawns and destroys real processes)")
    chaos_p.add_argument("--seed", type=int, default=0,
                         help="varies the sweep topologies (runs stay "
                              "deterministic per seed)")
    chaos_p.add_argument("--keep", metavar="DIR", default=None,
                         help="scratch directory to run in and keep "
                              "(default: temp dir, removed on a clean pass)")
    return parser


def _machine_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--nodes", type=int, default=8)
    parser.add_argument("--ranks-per-socket", type=int, default=8, dest="rps")


def _machine(args):
    from repro.cluster import Machine

    return Machine.niagara_like(nodes=args.nodes, ranks_per_socket=args.rps)


def cmd_info(args) -> int:
    import repro
    from repro.bench.config import _SCALES
    from repro.collectives.alltoall import alltoall_algorithms
    from repro.collectives.base import list_algorithms

    print(f"repro {repro.__version__} — CLUSTER 2024 neighborhood-allgather reproduction")
    print("allgather algorithms:")
    for info in list_algorithms():
        caps = ", ".join(sorted(info.capabilities)) or "-"
        print(f"  {info.name:<20} [{caps}]")
    print(f"alltoall algorithms : {', '.join(alltoall_algorithms())}")
    print("bench scales        : " + ", ".join(
        f"{name} ({s.ranks} ranks)" for name, s in _SCALES.items()
    ))
    print(f"figures             : {', '.join(sorted(FIGURES))}")
    return 0


def cmd_calibrate(args) -> int:
    from repro.cluster.calibration import fit_hockney, simulated_ping_pong

    machine = _machine(args)
    print(f"machine: {machine.describe()}")
    samples = simulated_ping_pong(machine)
    rows = [(format_size(s), t * 1e6) for s, t in sorted(samples.items())]
    print(format_table(["size", "one-way (us)"], rows, title="simulated ping-pong"))
    fit = fit_hockney(samples)
    print(f"\nHockney fit: alpha = {fit.alpha * 1e6:.3f} us, "
          f"beta = {fit.beta / 1e9:.2f} GB/s")
    return 0


def _build_topology(args, n: int):
    from repro.topology import cartesian_topology, erdos_renyi_topology, moore_topology

    if args.topology == "random":
        return erdos_renyi_topology(n, args.density, seed=args.seed)
    if args.topology == "moore":
        return moore_topology(n, r=args.radius, d=args.dims)
    return cartesian_topology(n, d=args.dims)


def cmd_compare(args) -> int:
    machine = _machine(args)
    n = machine.spec.n_ranks
    topology = _build_topology(args, n)
    print(f"machine : {machine.describe()}")
    print(f"topology: {topology!r}")
    print(f"message : {format_size(parse_size(args.msg))} ({args.collective})\n")

    rows = []
    baseline = None
    names = tuple(n_.strip() for n_ in (args.algorithms or "").split(",") if n_.strip())
    if args.collective == "allgather":
        from repro.collectives import RunOptions, run_allgather, verify_allgather
        from repro.collectives.base import (
            SETUP_FREE_FALLBACK,
            algorithm_info,
            list_algorithms,
        )
        from repro.sim.faults import get_profile

        for name in names:
            try:
                algorithm_info(name)
            except KeyError as exc:
                print(f"error: --algorithms: {exc.args[0]}", file=sys.stderr)
                return 2
        if not names:
            names = tuple(
                info.name for info in list_algorithms(requires={"oracle"})
            )
        fault_plan = (
            get_profile(args.faults, n, seed=args.seed) if args.faults else None
        )
        # Crash profiles pair the plan with its recovery policy: ``crash``
        # degrades to the setup-free fallback, ``crash_recover`` shrinks
        # and re-plans.
        on_failure = CRASH_PROFILE_MODES.get(args.faults, "abort")
        if fault_plan is not None:
            mode = f", on_failure={on_failure}" if on_failure != "abort" else ""
            print(f"faults  : {args.faults} ({fault_plan.describe()}{mode})\n")
        options = RunOptions(
            fault_plan=fault_plan,
            fallback=SETUP_FREE_FALLBACK if fault_plan is not None else None,
            max_sim_time=args.max_sim_time,
            max_events=args.max_events,
            on_failure=on_failure,
        )
        for name in names:
            run = run_allgather(name, topology, machine, args.msg, options=options)
            verify_allgather(topology, run, allow_missing=run.missing_ranks)
            baseline = baseline or run.simulated_time
            label = name if not run.fallback_used else f"{name} (->{run.algorithm})"
            if run.missing_ranks:
                rounds = (run.recovery or {}).get("rounds", 0)
                label += (f" [lost {list(run.missing_ranks)}, "
                          f"{rounds} recovery round(s)]")
            rows.append(
                (label, f"{run.simulated_time * 1e6:.1f} us",
                 f"{baseline / run.simulated_time:.2f}x", run.messages_sent)
            )
    else:
        from repro.collectives.alltoall import (
            alltoall_algorithms,
            run_alltoall,
            verify_alltoall,
        )

        for flag, value in (("--faults", args.faults), ("--max-sim-time", args.max_sim_time),
                            ("--max-events", args.max_events)):
            if value is not None:
                print(f"error: {flag} applies to allgather only, not --collective alltoall",
                      file=sys.stderr)
                return 2
        known = alltoall_algorithms()
        for name in names:
            if name not in known:
                print(f"error: --algorithms: unknown alltoall algorithm {name!r}; "
                      f"available: {list(known)}", file=sys.stderr)
                return 2
        if not names:  # naive first: the baseline row
            names = ("naive_alltoall",) + tuple(n_ for n_ in known if n_ != "naive_alltoall")
        for name in names:
            run = run_alltoall(name, topology, machine, args.msg)
            verify_alltoall(topology, run)
            baseline = baseline or run.simulated_time
            rows.append(
                (name, f"{run.simulated_time * 1e6:.1f} us",
                 f"{baseline / run.simulated_time:.2f}x", run.messages_sent)
            )
    print(format_table(["algorithm", "latency", "speedup", "messages"], rows,
                       title="results verified identical across algorithms"))
    return 0


def cmd_model(args) -> int:
    from repro.bench.heatmap import render_speedup_grid
    from repro.cluster.calibration import calibrate
    from repro.model import ModelParams, model_grid

    machine = _machine(args)
    fit = calibrate(machine)
    params = ModelParams(n=2000, sockets=2, ranks_per_socket=20,
                         alpha=fit.alpha, beta=fit.beta)
    grid = model_grid(params)
    print(
        render_speedup_grid(
            grid.rows(),
            row_key="density",
            col_key="msg_size",
            value_key="speedup",
            title="Fig. 2 — model-predicted DH speedup over naive (paper scale)",
            col_label=lambda s: format_size(int(s)),
            row_label=lambda d: f"d={d}",
        )
    )
    return 0


def cmd_analyze(args) -> int:
    from repro.topology.analysis import analyze_topology, pattern_preview

    machine = _machine(args)
    topology = _build_topology(args, machine.spec.n_ranks)
    print(f"machine : {machine.describe()}")
    report = analyze_topology(topology, machine)
    for line in report.summary_lines():
        print(line)
    try:
        preview = pattern_preview(topology, machine)
    except AssertionError as exc:
        print(f"error: Distance Halving pattern check failed: {exc}", file=sys.stderr)
        return 1
    print(
        f"Distance Halving preview: {preview['levels']} levels, "
        f"agent success {preview['agent_success_rate']:.0%}, "
        f"{preview['dh_messages_per_call']} msgs/call vs "
        f"{preview['naive_messages_per_call']} naive "
        f"({preview['message_reduction']:.1f}x fewer), "
        f"peak buffer {preview['peak_buffer_blocks']} blocks"
    )
    return 0


def cmd_spmm(args) -> int:
    from repro.spmm import run_spmm, synthetic_matrix
    from repro.spmm.matrices import matrix_names

    machine = _machine(args)
    names = args.matrices or list(matrix_names())
    rows = []
    for name in names:
        matrix = synthetic_matrix(name, seed=1)
        naive = run_spmm(matrix, args.cols, machine, "naive", seed=1)
        dh = run_spmm(matrix, args.cols, machine, "distance_halving", seed=1)
        rows.append(
            (name, matrix.shape[0], matrix.nnz,
             f"{naive.total_time * 1e6:.0f} us",
             f"{naive.total_time / dh.total_time:.2f}x")
        )
    print(format_table(["matrix", "n", "nnz", "naive time", "DH speedup"], rows,
                       title="SpMM kernel (results verified against X @ Y)"))
    return 0


_SMOKE_FLAGS = (*_EXEC_FLAGS, "--min-cache-hit-rate", "--max-wall-seconds")
#: The flags each ``repro bench`` mode reads (a figure, the default mode,
#: reads the flags beside its driver in :data:`FIGURES`); any other flag
#: exits 2 with the modes and figures that take it.
_BENCH_MODE_FLAGS = {
    "--wallclock": ("--scale", "--smoke", "--repeats", "--out", "--record-baseline",
                    "--sim-mode", "--paper-scales", "--profile",
                    "--max-auto-wall-kernels", "--min-plan-cache-hit-rate"),
    "--resilience": ("--scale", "--smoke", "--out", *_EXEC_FLAGS),
    "--sweep-smoke": _SMOKE_FLAGS,
    "--paper-smoke": _SMOKE_FLAGS,
}


def _flag_value(args, flag: str):
    return getattr(args, flag.lstrip("-").replace("-", "_"))


def _bench_flag_error(args) -> str | None:
    """One line naming the first flag the selected mode or figure does not
    read."""
    modes = [mode for mode in _BENCH_MODE_FLAGS if _flag_value(args, mode)]
    if len(modes) > 1:
        return ("--wallclock, --resilience, --sweep-smoke and --paper-smoke "
                "are mutually exclusive")
    if not modes and args.figure is None:
        return ("a figure name is required unless --wallclock, --resilience, "
                "--sweep-smoke or --paper-smoke is given")
    if modes and args.figure is not None:
        return f"a figure name ({args.figure}) applies to figures only, not {modes[0]}"
    readers = {name: flags for name, (_, flags) in FIGURES.items()}
    readers["all"] = tuple(dict.fromkeys(f for flags in readers.values() for f in flags))
    readers.update(_BENCH_MODE_FLAGS)
    current = modes[0] if modes else args.figure
    for flag in dict.fromkeys(f for flags in readers.values() for f in flags):
        value = _flag_value(args, flag)
        if value is not None and value is not False and flag not in readers[current]:
            takers = ", ".join(m for m, flags in readers.items() if flag in flags)
            where = current if modes else f"figure {current}"
            return f"{flag} applies to {takers} only, not {where}"
    if not modes and args.sim_mode == "compare":
        return ("--sim-mode compare applies to --wallclock only; figures take "
                "des or auto")
    return None


def cmd_bench(args) -> int:
    from repro.bench.config import SweepConfig

    error = _bench_flag_error(args)
    if error is not None:
        print(f"error: {error}", file=sys.stderr)
        return 2
    scale = get_scale(args.scale)
    config = SweepConfig(
        scale=scale,
        seed=args.seed,
        workers=1 if args.workers is None else args.workers,
        cache_dir=args.cache_dir,
        use_cache=not args.no_cache,
        # The paper slice runs on the fast path: a DES pass at 2160 ranks
        # takes minutes per spec.
        sim_mode="auto" if args.paper_smoke else args.sim_mode or "des",
    )
    if args.sweep_smoke or args.paper_smoke:
        import time

        from repro.bench.sweep import PAPER_SMOKE, smoke_sweep

        start = time.perf_counter()
        report = smoke_sweep(config, **(PAPER_SMOKE if args.paper_smoke else {}))
        wall = time.perf_counter() - start
        ex = report["execution"]
        cache_stats = ex.get("cache")
        print(f"{report['experiment']} ({report['ranks']} ranks, "
              f"sim_mode={report['sim_mode']}): {ex['total']} specs, "
              f"{ex['from_cache']} from cache, {ex['computed']} computed, "
              f"workers={ex['workers']}, wall={wall:.1f}s")
        if cache_stats is None:
            print("cache: disabled")
            hit_rate = 0.0
        else:
            hit_rate = cache_stats["hit_rate"]
            print(f"cache: {ex['cache_dir']} hits={cache_stats['hits']} "
                  f"misses={cache_stats['misses']} "
                  f"invalidated={cache_stats['invalidated']} "
                  f"hit_rate={hit_rate:.2f}")
        if (args.min_cache_hit_rate is not None
                and hit_rate < args.min_cache_hit_rate):
            print(f"error: cache hit rate {hit_rate:.2f} is below the "
                  f"required {args.min_cache_hit_rate:.2f}", file=sys.stderr)
            return 1
        if args.max_wall_seconds is not None and wall > args.max_wall_seconds:
            print(f"error: sweep wall clock {wall:.1f}s exceeded the "
                  f"{args.max_wall_seconds:.1f}s budget", file=sys.stderr)
            return 1
        return 0
    if args.wallclock:
        from repro.bench.wallclock import wallclock_bench

        default_repeats = 1 if args.smoke else 3
        repeats = default_repeats if args.repeats is None else args.repeats
        if repeats < 1:
            print(f"error: --repeats must be >= 1, got {repeats}",
                  file=sys.stderr)
            return 2
        try:
            payload = wallclock_bench(
                scale=scale,
                repeats=repeats,
                smoke=args.smoke,
                out_path=args.out or "BENCH_sim_core.json",
                record_baseline=args.record_baseline,
                verbose=True,
                sim_mode=args.sim_mode or "compare",
                paper_scales=args.paper_scales,
                profile=args.profile,
            )
        except (OSError, ValueError) as exc:
            # Unreadable/corrupt golden or baseline files (and bad knob
            # combinations) are operator errors, not bugs: one line, exit 1.
            print(f"error: {exc}", file=sys.stderr)
            return 1
        if args.max_auto_wall_kernels is not None:
            kernels = payload.get("auto_total_kernels")
            if kernels is None:
                print("error: --max-auto-wall-kernels needs cases that time "
                      "the hybrid path (run with --sim-mode compare or auto)",
                      file=sys.stderr)
                return 2
            if kernels > args.max_auto_wall_kernels:
                print(f"error: hybrid total wall {kernels:.2f} calibration "
                      f"kernels exceeds the allowed "
                      f"{args.max_auto_wall_kernels:.2f}", file=sys.stderr)
                return 1
        if args.min_plan_cache_hit_rate is not None:
            rate = payload["plan_cache"]["hit_rate"]
            if rate < args.min_plan_cache_hit_rate:
                print(f"error: plan-cache hit rate {rate:.2f} is below the "
                      f"required {args.min_plan_cache_hit_rate:.2f}",
                      file=sys.stderr)
                return 1
        return 0
    if args.resilience:
        from repro.bench.resilience import resilience_bench

        resilience_bench(
            scale=scale,
            smoke=args.smoke,
            out_path=args.out or "BENCH_resilience.json",
            verbose=True,
            config=config,
        )
        return 0
    import repro.bench.figures as figures

    names = sorted(FIGURES) if args.figure == "all" else [args.figure]
    for name in names:
        driver = getattr(figures, FIGURES[name][0])
        driver(scale, verbose=True, config=config)
    return 0


def cmd_advise(args) -> int:
    if args.distill:
        return _advise_distill(args)
    if args.regret:
        return _advise_regret(args)
    return _advise_algorithm(args)


def _advise_algorithm(args) -> int:
    from repro.collectives import RunOptions
    from repro.collectives.base import SETUP_FREE_FALLBACK
    from repro.cluster.calibration import calibrate
    from repro.model import crossover_density, crossover_size
    from repro.model.crossover import model_params_for
    from repro.select import DecisionTable, select
    from repro.sim.faults import get_profile

    machine = _machine(args)
    n = machine.spec.n_ranks
    topology = _build_topology(args, n)
    table = DecisionTable.load(args.table) if args.table else None

    options = None
    if args.faults:
        fault_plan = get_profile(args.faults, n, seed=args.seed)
        options = RunOptions(
            fault_plan=fault_plan,
            fallback=SETUP_FREE_FALLBACK,
            on_failure=CRASH_PROFILE_MODES.get(args.faults, "abort"),
        )
        print(f"faults   : {args.faults} ({fault_plan.describe()})")

    selection = select(topology, machine, args.msg, options, table=table)
    feats = selection.features
    print(f"machine  : {machine.describe()}")
    print(f"topology : {topology!r}")
    print(f"workload : {feats.describe()}")
    print(f"key      : {feats.key()} (source={selection.source}, "
          f"table={selection.table_version})")
    print(f"ranking  : {' > '.join(selection.ranking)}")
    if selection.rejected:
        print(f"rejected : {', '.join(selection.rejected)} "
              "(setup not survivable under the fault plan)")
    kwargs = dict(selection.kwargs)
    suffix = f" {kwargs}" if kwargs else ""
    print(f"advice   : {selection.algorithm}{suffix}")

    fit = calibrate(machine)
    params = model_params_for(
        n=n,
        sockets=machine.spec.sockets_per_node,
        ranks_per_socket=machine.spec.ranks_per_socket,
        alpha=fit.alpha,
        beta=fit.beta,
    )
    msg_bytes = feats.mean_bytes
    dens_x = crossover_density(params, msg_bytes)
    size_x = crossover_size(params, feats.density)
    dens_str = f"delta >= {dens_x:.3f}" if dens_x is not None else "never"
    size_str = (f"m >= {format_size(size_x)}" if size_x is not None
                else "never")
    print(f"model    : DH beats naive at {dens_str} "
          f"(m={format_size(int(msg_bytes))}); at {size_str} "
          f"(delta={feats.density:.3f})")
    return 0


def _advise_distill(args) -> int:
    from repro.bench.config import SweepConfig
    from repro.select import distill

    config = SweepConfig(
        workers=args.workers,
        cache_dir=args.cache_dir,
        use_cache=not args.no_cache,
    )
    table = distill(config)
    out = args.out or "selection_table.json"
    table.save(out)
    empirical = sum(
        1 for e in table.entries.values() if e.source == "empirical"
    )
    print(f"distilled table {table.version}: {len(table.entries)} keys, "
          f"{empirical} empirical, "
          f"{table.provenance['grid']['cells']} grid cells -> {out}")
    return 0


def _advise_regret(args) -> int:
    import json

    from repro.select import (
        DecisionTable,
        check_gates,
        generate_scenarios,
        regret_report,
    )

    table = DecisionTable.load(args.table) if args.table else None
    scenarios = generate_scenarios(args.seed, args.scenarios, args.profile)
    report = regret_report(scenarios, table)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(report, fh, indent=2, sort_keys=True)
            fh.write("\n")
    print(f"regret: {report['scenarios']} scenarios "
          f"(profile={args.profile}, seed={args.seed}, "
          f"table={report['table_version']})")
    print(f"  geomean={report['geomean_regret']:.4f} "
          f"max={report['max_regret']:.4f} "
          f"non_survivable_picks={report['non_survivable_picks']}")
    for record in report["worst"]:
        print(f"  worst: {record['label']} regret={record['regret']:.3f} "
              f"(picked {record['selected']}, best {record['best']})")
    failures = check_gates(report, max_geomean_regret=args.max_regret)
    for failure in failures:
        print(f"error: {failure}", file=sys.stderr)
    return 1 if failures else 0


def cmd_fuzz(args) -> int:
    from repro.verify import fuzz, replay_file

    if args.replay is not None:
        try:
            violations = replay_file(args.replay)
        except (OSError, ValueError, KeyError, TypeError) as exc:
            # Missing file, corrupt JSON, or a repro payload without the
            # expected structure ("scenario" key, field types): one line on
            # stderr, non-zero exit, no traceback.
            detail = f"missing key {exc}" if isinstance(exc, KeyError) else exc
            print(f"error: cannot replay {args.replay}: {detail}", file=sys.stderr)
            return 1
        if not violations:
            print(f"replay {args.replay}: no violations (fixed)")
            return 0
        print(f"replay {args.replay}: {len(violations)} violation(s)")
        for v in violations:
            print(f"  - {v}")
        return 1

    every = max(1, args.iterations // 10)

    def progress(done: int, total: int) -> None:
        if done % every == 0 or done == total:
            print(f"  {done}/{total} iterations", flush=True)

    report = fuzz(
        seed=args.seed,
        iterations=args.iterations,
        time_budget=args.time_budget,
        profile=args.profile,
        inject_bug=args.inject_bug,
        shrink=not args.no_shrink,
        out_dir=args.out_dir,
        on_progress=progress,
    )
    print(report.summary())
    return 0 if report.ok else 1


def cmd_chaos(args) -> int:
    from repro.exec.chaos import ChaosError, run_chaos

    try:
        report = run_chaos(
            iterations=args.iterations,
            workers=args.workers,
            kill_workers=args.kill_workers,
            seed=args.seed,
            root=args.keep,
            progress=lambda msg: print(msg, flush=True),
        )
    except ChaosError as exc:
        print(f"error: {exc}", file=sys.stderr)
        artifacts = getattr(exc, "artifacts_dir", None)
        if artifacts:
            print(f"artifacts kept in {artifacts}", file=sys.stderr)
        return 1
    print(report.summary())
    return 0 if report.ok else 1


_COMMANDS = {
    "info": cmd_info,
    "calibrate": cmd_calibrate,
    "compare": cmd_compare,
    "model": cmd_model,
    "analyze": cmd_analyze,
    "spmm": cmd_spmm,
    "bench": cmd_bench,
    "advise": cmd_advise,
    "fuzz": cmd_fuzz,
    "chaos": cmd_chaos,
}


def main(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except (DeadlockError, SimTimeoutError, RankFailedError,
            RetriesExhaustedError) as exc:
        # Simulation-level failures are expected outcomes under fault plans
        # and watchdog budgets: one line on stderr, non-zero exit, no
        # traceback.
        kind = type(exc).__name__
        print(f"error: {kind}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
