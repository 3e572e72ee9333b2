"""The repository benchmark: cold and warm sweeps end to end, layers traced.

Run one workload::

    python3 perf/run.py --workload fig5_cold [--seed 23] [--seconds 15] [--trace 0|1]

The last line of standard output is the result, one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``.  With
``--trace 0`` the metrics are the end-to-end metrics of BENCHMARK.json;
with ``--trace 1`` they are its per-layer metrics, taken from a traced
sweep that follows an untraced one of the same cells.  The exit code is 0
when every cell was correct, 1 when some cell failed (the result is still
printed), and 2 when the benchmark could not run at all.

Each phase runs in a fresh interpreter, one at a time, with one thread:
``setup`` times pattern creation, ``sweep`` runs the cells in a closed
loop with one client.  Other modes::

    python3 perf/run.py --workload W --smoke         # tiny variant, seconds
    python3 perf/run.py --compare A.jsonl B.jsonl    # two sets of --out records
    python3 perf/run.py --record-reference           # rewrite reference.json

See perf/README.md for the workloads, the metrics and their bounds.
"""

from __future__ import annotations

import argparse
import bisect
import contextlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

PERF = Path(__file__).resolve().parent
ROOT = PERF.parent
SRC = ROOT / "src"
OUT = PERF / "out"
BENCHMARK = ROOT / "BENCHMARK.json"
REFERENCE = PERF / "reference.json"

DEFAULT_SEED = 23
#: Seeds whose cells reference.json records (23 is the repo's FIG5_SEED;
#: 24 is held out).
RECORDED_SEEDS = (23, 24)
#: Fresh-instance setup() calls per pattern; setup_s sums their medians.
#: A median of 3 spread up to 20% between runs.
SETUP_REPEATS = 7
#: cell_tail_ms is the mean of this slowest share of the cells.
TAIL_SHARE = 0.2
#: A run must finish within 180 s; phases share this budget.
DEADLINE_S = 170.0
#: Time of one calibration kernel on the 2-core VM the bounds were set on.
KERNEL_REF_S = 0.004
#: Least time between two calibration samples.
KERNEL_EVERY_S = 0.1
#: A timed call is scaled by the samples this many places either side of it.
KERNEL_WINDOW = 4


# --------------------------------------------------------------- phases
# Phases run in child processes and import the program; the parent never
# does, so its own imports cannot warm or bloat a measured phase.

def _import_program() -> None:
    sys.path.insert(0, str(SRC))


def _kernel() -> int:
    total = 0
    for i in range(60_000):
        total += i * i % 7
    return total


class SpeedProbe:
    """How fast this machine runs the interpreter while a phase is timed.

    The host's speed drifts by more than 10% between 10-second windows
    (other tenants share its cores), which no amount of averaging inside
    one run removes.  So before each timed call a phase runs a fixed
    pure-Python kernel, at most every KERNEL_EVERY_S, and each call's time
    is rescaled by ``KERNEL_REF_S / mean kernel time`` over the
    2 * KERNEL_WINDOW samples around it: seconds at the reference
    machine's speed.
    """

    def __init__(self) -> None:
        self.stamps: list[float] = []
        self.samples: list[float] = []
        self._last = -KERNEL_EVERY_S

    def sample(self) -> None:
        start = time.perf_counter()
        if start - self._last >= KERNEL_EVERY_S:
            _kernel()
            self._last = time.perf_counter()
            self.stamps.append(start)
            self.samples.append(self._last - start)

    def scaled(self, starts: list[float], walls: list[float]) -> list[float]:
        out = []
        for start, wall in zip(starts, walls):
            k = bisect.bisect_right(self.stamps, start)
            window = self.samples[max(0, k - KERNEL_WINDOW):k + KERNEL_WINDOW]
            out.append(wall * KERNEL_REF_S / statistics.fmean(window))
        return out


def _build(built: dict, spec):
    """``spec.build()``, once per distinct spec."""
    if spec not in built:
        built[spec] = spec.build()
    return built[spec]


def phase_setup(args) -> dict:
    """Median of SETUP_REPEATS fresh setup() calls per pattern, summed.

    The calls go round-robin over the patterns, so a burst of load on the
    host lands on one sample of many patterns rather than on most samples
    of one.
    """
    _import_program()
    from repro.collectives import get_algorithm
    from workloads import setup_targets

    built, starts, walls = {}, [], []
    probe = SpeedProbe()
    targets = setup_targets(args.workload, args.seed, args.smoke)
    inputs = [(_build(built, topology), _build(built, machine))
              for _, _, topology, machine in targets]
    for _ in range(SETUP_REPEATS):
        for (algorithm, kwargs, _, _), (graph, mach) in zip(targets, inputs):
            instance = get_algorithm(algorithm, **dict(kwargs))
            probe.sample()
            starts.append(time.perf_counter())
            instance.setup(graph, mach)
            walls.append(time.perf_counter() - starts[-1])
    probe.sample()
    scaled = probe.scaled(starts, walls)
    medians = [statistics.median(scaled[i::len(targets)]) for i in range(len(targets))]
    return {"setup_s": sum(medians), "patterns": len(targets),
            "kernel_s": statistics.fmean(probe.samples)}


def _check(run, entry, rtol) -> str | None:
    """Why ``run`` disagrees with its DES reference ``entry``, or None.

    An ``auto`` cell's entry also names the algorithm the selector picked
    when it was recorded; a different pick is a different run.
    """
    if entry is None:
        return "no reference entry (rerun --record-reference)"
    simulated, messages, *selected = entry
    if selected and run.selected_algorithm != selected[0]:
        return (f"auto picked {run.selected_algorithm}, reference recorded {selected[0]} "
                "(rerun --record-reference)")
    if run.messages_sent != messages:
        return f"messages {run.messages_sent} != reference {messages}"
    if run.sim_path == "analytic":
        if abs(run.simulated_time - simulated) > rtol * simulated:
            return f"analytic time {run.simulated_time!r} outside rtol of {simulated!r}"
    elif run.simulated_time != simulated:
        return f"simulated_time {run.simulated_time!r} != reference {simulated!r}"
    return None


def phase_sweep(args) -> dict:
    """Run the workload's cells serially; optionally under the tracer."""
    _import_program()
    import repro.collectives.runner as runner
    import repro.exec as rexec
    from repro.collectives import get_algorithm
    from repro.sim.fastpath import ANALYTIC_RTOL
    from layers import Tracer
    from workloads import WORKLOADS, build_rounds, pattern, reference_key, rounds_for

    workload = WORKLOADS[args.workload]
    rounds = 1 if args.smoke else rounds_for(args.workload, args.seconds)
    reference = json.loads(Path(args.reference).read_text())
    recorded = args.seed in reference["seeds"]
    recorded_rounds = 1 if args.smoke else reference["rounds"][args.workload]
    cells, keys = [], []  # keys[i] is None for a cell the reference does not cover
    for r, round_cells in enumerate(build_rounds(args.workload, args.seed, rounds, args.smoke)):
        for label, spec in round_cells:
            cells.append((label, spec))
            covered = recorded and r < recorded_rounds
            keys.append(reference_key(args.workload, args.seed, None if args.smoke else r, label)
                        if covered else None)
    entries = reference["cells"]

    # Warm: one set-up instance per pattern, built before timing starts.
    instances, built = {}, {}
    for _, spec in cells if workload.warm else ():
        key = pattern(spec)
        if key not in instances:
            graph, mach = _build(built, spec.topology), _build(built, spec.machine)
            instance = get_algorithm(spec.algorithm, **dict(spec.algorithm_kwargs))
            instance.setup(graph, mach)
            instances[key] = (instance, graph, mach)

    OUT.mkdir(parents=True, exist_ok=True)
    cache_dir = OUT / f"cache-{os.getpid()}"
    cache = rexec.ResultCache(cache_dir)
    starts, walls, failures, checked = [], [], [], 0
    probe = SpeedProbe()
    try:
        with Tracer() if args.traced else contextlib.nullcontext() as tracer:
            for i, (label, spec) in enumerate(cells):
                run, error = None, None
                probe.sample()
                starts.append(time.perf_counter())
                if workload.warm:
                    instance, graph, mach = instances[pattern(spec)]
                    try:
                        run = runner.run_allgather(instance, graph, mach, spec.msg_size,
                                                   options=spec.options)
                    except Exception as exc:  # a failed cell is data, not a crash
                        error = f"{type(exc).__name__}: {exc}"
                else:
                    outcome = rexec.execute([spec], workers=1, cache=cache).outcomes[0]
                    run, error = outcome.run, outcome.error
                walls.append(time.perf_counter() - starts[-1])
                if error is None and keys[i] is not None:
                    checked += 1
                    error = _check(run, entries.get(keys[i]), ANALYTIC_RTOL)
                if error is not None:
                    failures.append(f"{label}: {error}")
    finally:
        shutil.rmtree(cache_dir, ignore_errors=True)
    probe.sample()

    result = {
        "rounds": rounds,
        "walls": walls,
        "scaled": probe.scaled(starts, walls),
        "kernel_s": statistics.fmean(probe.samples),
        "labels": [label for label, _ in cells],
        "failures": failures,
        "recorded": recorded,
        "covered": sum(key is not None for key in keys),
        "checked": checked,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    if tracer is not None:
        result.update(
            self_time=dict(tracer.self_time),
            calls=dict(tracer.calls),
            counters=dict(tracer.counters),
            absent=tracer.absent,
        )
        trace_path = OUT / "perf_trace.json"
        trace_path.write_text(json.dumps({
            "workload": args.workload, "seed": args.seed, "absent": tracer.absent,
            "spans": [list(span) for span in tracer.spans],
        }))
    return result


# --------------------------------------------------------------- parent

class BenchmarkError(Exception):
    """The benchmark cannot run (exit 2, no result)."""


def _child(args, phase: str, deadline: float, traced: bool = False) -> dict:
    command = [
        sys.executable, str(PERF / "run.py"), "--phase", phase,
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--reference", str(args.reference),
    ]
    if args.smoke:
        command.append("--smoke")
    if traced:
        command.append("--traced")
    env = dict(os.environ, OMP_NUM_THREADS="1")
    try:
        proc = subprocess.run(command, stdout=subprocess.PIPE, text=True, env=env,
                              timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        raise BenchmarkError(f"{phase} phase exceeded the {DEADLINE_S:.0f} s budget") from None
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchmarkError(f"{phase} phase failed with exit code {proc.returncode}")
    return json.loads(lines[-1])


def _end_to_end(setup: dict, sweep: dict) -> dict:
    walls = sorted(sweep["scaled"], reverse=True)
    tail = walls[:max(1, round(len(walls) * TAIL_SHARE))]
    return {
        "setup_s": setup["setup_s"],
        "sweep_s": sum(walls),
        "cell_tail_ms": statistics.fmean(tail) * 1e3,
        "peak_rss_mb": sweep["peak_rss_mb"],
    }


def _per_layer(base: dict, traced: dict) -> dict:
    from layers import COUNTERS, LAYERS

    wall = sum(traced["walls"])  # busy fractions are shares of raw time
    values = {}
    for layer in LAYERS:
        values[f"{layer}.busy_frac"] = traced["self_time"].get(layer, 0.0) / wall
        values[f"{layer}.calls"] = traced["calls"].get(layer, 0)
    for name in COUNTERS:
        values[name] = traced["counters"].get(name, 0)
    lookups = values["sim.plancache.hits"] + values["sim.plancache.misses"]
    values["sim.plancache.hit_rate"] = values["sim.plancache.hits"] / lookups if lookups else 0.0
    values["trace.coverage"] = sum(traced["self_time"].values()) / wall
    values["trace.sweep_s"] = sum(traced["scaled"])
    values["trace.overhead_s"] = values["trace.sweep_s"] - sum(base["scaled"])
    return values


def _report(args, sweeps: list[dict], setup: dict | None, values: dict, declared: list) -> None:
    """Human-readable lines ahead of the result line."""
    sweep = sweeps[-1]
    mode = "traced" if args.trace else "untraced"
    print(f"{args.workload}: seed {args.seed}, {sweep['rounds']} round(s), "
          f"{len(sweep['walls'])} cells, {mode}{', smoke' if args.smoke else ''}")
    if setup is not None:
        print(f"  setup_s sums the median of {SETUP_REPEATS} setup() calls "
              f"over {setup['patterns']} patterns")
    for phase in ([setup] if setup else []) + sweeps:
        print(f"  speed: calibration kernel {phase['kernel_s'] * 1e3:.2f} ms on average "
              f"(reference {KERNEL_REF_S * 1e3:.2f} ms)")
    print(f"  median cell {statistics.median(sweep['scaled']) * 1e3:.1f} ms "
          "(scaled; printed, not a metric)")
    slowest = sorted(zip(sweep["walls"], sweep["labels"]), reverse=True)[:3]
    for wall, label in slowest:
        print(f"  slow cell {wall:8.3f} s (unscaled)  {label}")
    for metric in declared:
        print(f"  {metric['name']:<40} {values[metric['name']]:>14.6g} {metric['unit']}")
    if sweep.get("absent"):
        print(f"  absent trace targets: {', '.join(sweep['absent'])}")
    if sweep["recorded"]:
        print(f"  reference: {sweep['checked']}/{len(sweep['walls'])} cells checked "
              f"against the DES reference for seed {args.seed}")
        if sweep["covered"] < len(sweep["walls"]):
            print(f"  reference: {len(sweep['walls']) - sweep['covered']} cells lie beyond "
                  "the recorded rounds; checked by verify_allgather only")
    else:
        print(f"  reference: seed {args.seed} is not recorded; cells checked by "
              "verify_allgather only")
    for failure in (f for s in sweeps for f in s["failures"]):
        print(f"  FAILED {failure}")


def run_benchmark(args, bench: dict) -> int:
    if not (SRC / "repro").is_dir():
        raise BenchmarkError(f"no program source at {SRC / 'repro'}")
    if not Path(args.reference).is_file():
        raise BenchmarkError(f"no reference file at {args.reference}")
    names = [w["name"] for w in bench["workloads"]]
    if args.workload not in names:
        raise BenchmarkError(f"unknown workload {args.workload!r}; choose from {names}")
    deadline = time.monotonic() + DEADLINE_S
    if args.trace:
        sweeps = [_child(args, "sweep", deadline),
                  _child(args, "sweep", deadline, traced=True)]
        setup = None
        values = _per_layer(*sweeps)
        declared = bench["per_layer"]
    else:
        setup = _child(args, "setup", deadline)
        sweeps = [_child(args, "sweep", deadline)]
        values = _end_to_end(setup, sweeps[0])
        declared = bench["end_to_end"]
    _report(args, sweeps, setup, values, declared)
    attempted = sum(len(s["walls"]) for s in sweeps)
    failed = sum(len(s["failures"]) for s in sweeps)
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                    for m in declared},
    }
    if args.out:
        with open(args.out, "a") as handle:
            handle.write(json.dumps({"workload": args.workload, "seed": args.seed,
                                     "trace": args.trace, "smoke": args.smoke,
                                     "result": result}) + "\n")
    print(json.dumps(result))
    return 0 if failed == 0 else 1


# ------------------------------------------------------------ compare

def _spread(values: list[float]) -> float:
    """Interquartile range as a share of the median."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def compare(path_a: str, path_b: str, bench: dict) -> int:
    """Verdict per (metric, workload): set B against baseline set A."""
    def load(path):
        sets = {}
        for line in Path(path).read_text().splitlines():
            record = json.loads(line)
            if record["trace"] or record["smoke"]:
                continue
            for name, metric in record["result"]["metrics"].items():
                sets.setdefault((record["workload"], name), []).append(metric["value"])
        return sets

    a, b = load(path_a), load(path_b)
    ok = True
    print(f"{'workload':<14} {'metric':<12} {'median A':>11} {'median B':>11} "
          f"{'change':>8} {'spread A':>9} {'spread B':>9} {'bound':>6}  verdict")
    for workload in (w["name"] for w in bench["workloads"]):
        for metric in bench["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            va, vb = a.get((workload, name), []), b.get((workload, name), [])
            if len(va) < 2 or len(vb) < 2:
                print(f"{workload:<14} {name:<12} fewer than 2 runs in a set: missing")
                ok = False
                continue
            ma, mb = statistics.median(va), statistics.median(vb)
            sa, sb = _spread(va), _spread(vb)
            sign = 1 if metric["better"] == "lower" else -1
            worse = sign * (mb - ma) / ma
            noisy = max(sa, sb) > bound
            if worse > bound:
                verdict = "worse"
            elif noisy:
                all_better = (max(vb) < min(va)) if sign > 0 else (min(vb) > max(va))
                verdict = "better" if all_better else "unresolved"
            elif -worse > bound:
                verdict = "better"
            else:
                verdict = "within"
            ok &= verdict in ("within", "better")
            print(f"{workload:<14} {name:<12} {ma:>11.5g} {mb:>11.5g} {worse * sign:>+8.1%} "
                  f"{sa:>9.1%} {sb:>9.1%} {bound:>6.0%}  {verdict}")
    return 0 if ok else 1


# ------------------------------------------------------------ reference

def record_reference(bench: dict, path: Path) -> int:
    """Run every recorded-seed cell on the DES and store its outcome."""
    _import_program()
    from dataclasses import replace

    from workloads import build_rounds, reference_key, rounds_for

    names = [w["name"] for w in bench["workloads"]]
    rounds = {name: rounds_for(name, bench["run_seconds"]) for name in names}
    cells = {}
    for workload in names:
        for seed in RECORDED_SEEDS:
            for smoke in (False, True):
                grid = build_rounds(workload, seed, 1 if smoke else rounds[workload], smoke)
                for r, round_cells in enumerate(grid):
                    for label, spec in round_cells:
                        key = reference_key(workload, seed, None if smoke else r, label)
                        if key in cells:
                            continue
                        run = replace(spec, options=replace(spec.options, sim_mode="des")).run()
                        cells[key] = [run.simulated_time, run.messages_sent]
                        if spec.algorithm == "auto":
                            cells[key].append(run.selected_algorithm)
                print(f"{workload} seed {seed}{' smoke' if smoke else ''}: "
                      f"{len(cells)} cells recorded so far", flush=True)
    rows = ",\n".join(f"  {json.dumps(key)}: {json.dumps(cells[key])}" for key in sorted(cells))
    path.write_text(f'{{"seeds": {json.dumps(list(RECORDED_SEEDS))},\n'
                    f' "rounds": {json.dumps(rounds)},\n "cells": {{\n{rows}\n}}}}\n')
    return 0


# --------------------------------------------------------------- main

def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=None,
                        help="run length; default: run_seconds of BENCHMARK.json")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny variant, one round")
    parser.add_argument("--out", help="append this run's result to a JSONL file")
    parser.add_argument("--reference", default=str(REFERENCE))
    parser.add_argument("--compare", nargs=2, metavar=("A", "B"))
    parser.add_argument("--record-reference", action="store_true")
    parser.add_argument("--phase", choices=("setup", "sweep"), help=argparse.SUPPRESS)
    parser.add_argument("--traced", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if args.phase is not None:
        output = phase_setup(args) if args.phase == "setup" else phase_sweep(args)
        print(json.dumps(output))
        return 0
    try:
        try:
            bench = json.loads(BENCHMARK.read_text())
        except OSError as exc:
            raise BenchmarkError(f"cannot read {BENCHMARK}: {exc}") from None
        if args.seconds is None:
            args.seconds = bench["run_seconds"]
        if args.compare:
            return compare(*args.compare, bench)
        if args.record_reference:
            return record_reference(bench, Path(args.reference))
        if not args.workload:
            raise BenchmarkError("--workload is required")
        return run_benchmark(args, bench)
    except BenchmarkError as exc:
        print(f"perf/run.py: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
