"""Unit tests for the command-line interface."""

import pytest

import repro.bench.reporting as reporting
from repro.bench.sweep import SMOKE_ALGORITHMS
from repro.cli import FIGURES, build_parser, main


@pytest.fixture(autouse=True)
def isolated_results(tmp_path, monkeypatch):
    monkeypatch.setattr(reporting, "RESULTS_DIR", tmp_path)
    # Keep the default-on CLI cache inside the test sandbox.
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
    yield tmp_path


SMALL = ["--nodes", "2", "--ranks-per-socket", "2"]

# Smoke-sweep grid size: every bench-enrolled algorithm x 2 densities x
# 2 sizes (see repro.bench.sweep.smoke_sweep).
SMOKE_SPECS = len(SMOKE_ALGORITHMS) * 2 * 2


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_unknown_figure_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["bench", "fig99"])

    def test_all_figures_resolvable(self):
        import repro.bench.figures as figures

        for attr, _flags in FIGURES.values():
            assert hasattr(figures, attr)


class TestCommands:
    def test_info(self, capsys):
        assert main(["info"]) == 0
        out = capsys.readouterr().out
        assert "allgather algorithms" in out
        assert "distance_halving" in out

    def test_calibrate(self, capsys):
        assert main(["calibrate", *SMALL]) == 0
        out = capsys.readouterr().out
        assert "Hockney fit" in out and "alpha" in out

    def test_compare_random(self, capsys):
        assert main(["compare", *SMALL, "--density", "0.5", "--msg", "256"]) == 0
        out = capsys.readouterr().out
        assert "distance_halving" in out and "verified" in out

    def test_compare_moore(self, capsys):
        assert main(["compare", *SMALL, "--topology", "moore", "--radius", "1"]) == 0
        assert "naive" in capsys.readouterr().out

    def test_compare_cartesian(self, capsys):
        assert main(["compare", *SMALL, "--topology", "cartesian"]) == 0
        assert "naive" in capsys.readouterr().out

    def test_compare_alltoall(self, capsys):
        assert main(["compare", *SMALL, "--collective", "alltoall", "--msg", "64"]) == 0
        assert "naive_alltoall" in capsys.readouterr().out

    def test_compare_alltoall_runs_every_algorithm_naive_first(self, capsys):
        from repro.collectives.alltoall import alltoall_algorithms

        assert main(["compare", *SMALL, "--collective", "alltoall", "--msg", "64"]) == 0
        rows = [line.split("|") for line in capsys.readouterr().out.splitlines()
                if "_alltoall" in line]
        assert sorted(row[0].strip() for row in rows) == sorted(alltoall_algorithms())
        assert rows[0][0].strip() == "naive_alltoall"
        assert rows[0][2].strip() == "1.00x"

    def test_compare_alltoall_honours_algorithms(self, capsys):
        assert main(["compare", *SMALL, "--collective", "alltoall", "--msg", "64",
                     "--algorithms", "distance_halving_alltoall"]) == 0
        out = capsys.readouterr().out
        assert "distance_halving_alltoall" in out
        assert "naive_alltoall" not in out and "common_neighbor_alltoall" not in out

    def test_compare_alltoall_rejects_unknown_algorithm(self, capsys):
        assert main(["compare", *SMALL, "--collective", "alltoall",
                     "--algorithms", "bogus"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: --algorithms: unknown alltoall algorithm 'bogus'")
        assert len(err.splitlines()) == 1

    @pytest.mark.parametrize("flag", [["--faults", "lossy"], ["--max-sim-time", "1.0"],
                                      ["--max-events", "10"]])
    def test_compare_alltoall_rejects_allgather_only_flags(self, capsys, flag):
        assert main(["compare", *SMALL, "--collective", "alltoall", *flag]) == 2
        err = capsys.readouterr().err
        assert err == f"error: {flag[0]} applies to allgather only, not --collective alltoall\n"

    def test_model(self, capsys):
        assert main(["model", *SMALL]) == 0
        out = capsys.readouterr().out
        assert "model-predicted DH speedup" in out and "shades:" in out

    def test_analyze(self, capsys):
        assert main(["analyze", *SMALL, "--density", "0.4"]) == 0
        out = capsys.readouterr().out
        assert "edge locality" in out and "Distance Halving preview" in out

    def test_analyze_rejects_pattern_that_drops_edges(self, monkeypatch, capsys):
        from repro.collectives.distance_halving import builder

        real_build = builder.build_patterns

        def dropping_build(topology, machine):
            pattern = real_build(topology, machine)
            next(rp for rp in pattern.ranks if rp.final_recvs).final_recvs.clear()
            return pattern

        monkeypatch.setattr(builder, "build_patterns", dropping_build)
        assert main(["analyze", *SMALL, "--density", "0.4"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: Distance Halving pattern check failed: edges never")
        assert err.count("\n") == 1

    def test_spmm_single_matrix(self, capsys):
        assert main(["spmm", *SMALL, "dwt_193"]) == 0
        out = capsys.readouterr().out
        assert "dwt_193" in out and "DH speedup" in out

    def test_bench_single_figure(self, isolated_results, capsys):
        # fig2 is the cheapest driver (closed-form model).
        assert main(["bench", "fig2", "--scale", "small"]) == 0
        assert "Fig. 2" in capsys.readouterr().out
        assert (isolated_results / "fig2_model.json").exists()


class TestFaults:
    def test_compare_with_lossy_profile(self, capsys):
        assert main(["compare", *SMALL, "--msg", "256", "--faults", "lossy"]) == 0
        out = capsys.readouterr().out
        assert "faults  : lossy" in out
        assert "verified" in out

    def test_compare_setup_loss_labels_fallback(self, capsys):
        assert main(["compare", *SMALL, "--msg", "256", "--faults", "setup_loss"]) == 0
        out = capsys.readouterr().out
        assert "distance_halving (->naive)" in out

    def test_compare_crash_recover_labels_lost_ranks(self, capsys):
        assert main(["compare", *SMALL, "--msg", "256", "--faults", "crash_recover"]) == 0
        out = capsys.readouterr().out
        assert "on_failure=shrink" in out
        assert "naive [lost [2, 6], 2 recovery round(s)]" in out
        assert "verified" in out

    def test_unknown_profile_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["compare", "--faults", "nope"])

    def test_watchdog_exceeded_exits_one_without_traceback(self, capsys):
        assert main(["compare", *SMALL, "--msg", "256", "--max-events", "10"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: SimTimeoutError:")
        assert "Traceback" not in err

    def test_generous_watchdog_budget_is_harmless(self, capsys):
        assert main(["compare", *SMALL, "--msg", "256",
                     "--max-sim-time", "10.0", "--max-events", "1000000"]) == 0
        assert "verified" in capsys.readouterr().out


class TestExecFlags:
    def test_sweep_smoke_cold_run_reports_stats(self, tmp_path, capsys):
        cache = tmp_path / "c1"
        assert main(["bench", "--sweep-smoke", "--cache-dir", str(cache)]) == 0
        out = capsys.readouterr().out
        assert f"{SMOKE_SPECS} computed" in out and "hit_rate=0.00" in out

    def test_sweep_smoke_warm_run_passes_hit_rate_gate(self, tmp_path, capsys):
        cache = tmp_path / "c2"
        assert main(["bench", "--sweep-smoke", "--cache-dir", str(cache)]) == 0
        capsys.readouterr()
        assert main(["bench", "--sweep-smoke", "--cache-dir", str(cache),
                     "--workers", "2", "--min-cache-hit-rate", "0.9"]) == 0
        out = capsys.readouterr().out
        assert f"{SMOKE_SPECS} from cache" in out and "hit_rate=1.00" in out

    def test_sweep_smoke_cold_run_fails_hit_rate_gate(self, tmp_path, capsys):
        cache = tmp_path / "c3"
        assert main(["bench", "--sweep-smoke", "--cache-dir", str(cache),
                     "--min-cache-hit-rate", "0.9"]) == 1
        assert "below the required" in capsys.readouterr().err

    def test_sweep_smoke_no_cache(self, capsys):
        assert main(["bench", "--sweep-smoke", "--no-cache"]) == 0
        assert "cache: disabled" in capsys.readouterr().out

    def test_bench_modes_mutually_exclusive(self, capsys):
        assert main(["bench", "--wallclock", "--sweep-smoke"]) == 2
        assert "mutually exclusive" in capsys.readouterr().err

    def test_paper_smoke_mutually_exclusive(self, capsys):
        assert main(["bench", "--paper-smoke", "--sweep-smoke"]) == 2
        assert "mutually exclusive" in capsys.readouterr().err

    def test_wall_budget_gate_fails_at_zero(self, capsys):
        assert main(["bench", "--sweep-smoke", "--no-cache",
                     "--max-wall-seconds", "0"]) == 1
        assert "exceeded" in capsys.readouterr().err

    def test_wall_budget_gate_passes_when_generous(self, capsys):
        assert main(["bench", "--sweep-smoke", "--no-cache",
                     "--max-wall-seconds", "600"]) == 0
        assert "wall=" in capsys.readouterr().out

    def test_figure_with_workers_and_cache_matches_serial(
        self, isolated_results, tmp_path, capsys, monkeypatch
    ):
        import json
        import types

        monkeypatch.setenv("REPRO_BENCH_SCALE", "small")
        # save_results stamps each archive to the second: pin that clock so
        # two writes that straddle a second still compare whole.
        monkeypatch.setattr(reporting, "time", types.SimpleNamespace(
            strftime=lambda fmt: "2024-01-01T00:00:00"))
        # fig6-variance is the cheapest figure that runs an orchestrated
        # grid, so it is one that reads --workers and the cache flags.
        archive = isolated_results / "fig6_variance_study.json"
        cache = tmp_path / "figcache"
        assert main(["bench", "fig6-variance", "--cache-dir", str(cache),
                     "--workers", "2"]) == 0
        first = json.loads(archive.read_text())
        assert main(["bench", "fig6-variance", "--cache-dir", str(cache),
                     "--workers", "2"]) == 0
        second = json.loads(archive.read_text())
        assert main(["bench", "fig6-variance", "--no-cache"]) == 0
        serial = json.loads(archive.read_text())
        assert first["timestamp"] == "2024-01-01T00:00:00"
        assert first == second == serial


class GridBuilt(Exception):
    """Raised by a patched ``SweepConfig.run`` to stop before simulating."""


@pytest.fixture
def built_specs(monkeypatch):
    """The specs the next orchestrated grid is handed; running it raises
    :class:`GridBuilt` instead of simulating."""
    from repro.bench.config import SweepConfig

    specs = []

    def run(self, grid):
        specs.extend(grid)
        raise GridBuilt

    monkeypatch.setattr(SweepConfig, "run", run)
    return specs


class TestBenchFlags:
    """``repro bench`` rejects each flag its mode or figure does not read:
    exit 2 and one line naming the flag and the modes and figures that
    take it."""

    @pytest.mark.parametrize("argv,flag", [
        (["fig4", "--out", "x.json"], "--out"),
        (["fig4", "--smoke"], "--smoke"),
        (["fig4", "--repeats", "5"], "--repeats"),
        (["--sweep-smoke", "--seed", "3"], "--seed"),
        (["--wallclock", "--workers", "2"], "--workers"),
        (["--paper-smoke", "--scale", "small"], "--scale"),
        (["--resilience", "--sim-mode", "auto"], "--sim-mode"),
        (["--resilience", "--repeats", "2"], "--repeats"),
        (["--wallclock", "--min-cache-hit-rate", "0.5"], "--min-cache-hit-rate"),
        (["--sweep-smoke", "--profile"], "--profile"),
        (["fig2", "--max-wall-seconds", "5"], "--max-wall-seconds"),
        (["fig2", "--workers", "2"], "--workers"),
        (["fig2", "--seed", "3"], "--seed"),
        (["fig6", "--seed", "3"], "--seed"),
        (["fig6-variance", "--seed", "3"], "--seed"),
        (["fig7", "--sim-mode", "auto"], "--sim-mode"),
        (["fig8", "--no-cache"], "--no-cache"),
        (["alltoall", "--workers", "2"], "--workers"),
        (["all", "--out", "x.json"], "--out"),
    ])
    def test_unread_flag_exits_2(self, argv, flag, capsys):
        assert main(["bench", *argv]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {flag} applies to ")
        assert err.count("\n") == 1

    def test_every_bench_flag_is_assigned_to_its_modes(self):
        from repro.cli import _BENCH_MODE_FLAGS

        subparsers = build_parser()._subparsers._group_actions[0]
        flags = {opt for action in subparsers.choices["bench"]._actions
                 for opt in action.option_strings} - {"-h", "--help"}
        tables = [*_BENCH_MODE_FLAGS.values(), *(fl for _, fl in FIGURES.values())]
        assert flags == set(_BENCH_MODE_FLAGS) | {f for fl in tables for f in fl}

    def test_error_names_the_modes_that_take_the_flag(self, capsys):
        assert main(["bench", "--wallclock", "--workers", "2"]) == 2
        assert capsys.readouterr().err == (
            "error: --workers applies to fig4, fig5, fig6, fig6-variance, "
            "ablation-agent, ablation-stop, all, --resilience, "
            "--sweep-smoke, --paper-smoke only, not --wallclock\n"
        )

    def test_figure_name_with_a_mode_flag_exits_2(self, capsys):
        assert main(["bench", "fig4", "--wallclock"]) == 2
        err = capsys.readouterr().err
        assert err == "error: a figure name (fig4) applies to figures only, not --wallclock\n"

    def test_figures_reject_sim_mode_compare(self, capsys):
        assert main(["bench", "fig4", "--sim-mode", "compare"]) == 2
        assert "figures take des or auto" in capsys.readouterr().err

    def test_figure_takes_its_flags(self, isolated_results, capsys):
        assert main(["bench", "fig4", "--scale", "small", "--seed", "11",
                     "--sim-mode", "auto", "--workers", "1", "--no-cache"]) == 0
        assert (isolated_results / "fig4_latency.json").exists()

    def test_all_takes_every_figure_flag(self):
        from repro.cli import _bench_flag_error

        args = build_parser().parse_args([
            "bench", "all", "--scale", "small", "--seed", "3",
            "--sim-mode", "auto", "--workers", "2", "--cache-dir", "c",
            "--no-cache",
        ])
        assert _bench_flag_error(args) is None

    def test_sim_mode_reaches_the_figure_specs(self, built_specs):
        with pytest.raises(GridBuilt):
            main(["bench", "ablation-stop", "--sim-mode", "auto", "--no-cache"])
        assert built_specs
        assert {spec.options.sim_mode for spec in built_specs} == {"auto"}

    @pytest.mark.parametrize("mode,count,ranks,sim_mode", [
        # The paper slice runs on the fast path whatever the flags say.
        ("--paper-smoke", 8, 2160, "auto"),
        ("--sweep-smoke", 16, 16, "des"),
    ])
    def test_smoke_grid_specs(self, built_specs, mode, count, ranks, sim_mode):
        with pytest.raises(GridBuilt):
            main(["bench", mode, "--no-cache"])
        assert len(built_specs) == count
        assert {spec.topology.n for spec in built_specs} == {ranks}
        assert {spec.options.sim_mode for spec in built_specs} == {sim_mode}


class TestAdvise:
    def test_requires_a_mode(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["advise"])

    def test_modes_mutually_exclusive(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["advise", "--algorithm", "--regret"])

    def test_algorithm_explains_the_pick(self, capsys):
        assert main(["advise", "--algorithm", *SMALL, "--density", "0.3",
                     "--msg", "4KB", "--seed", "3"]) == 0
        out = capsys.readouterr().out
        assert "ranking  :" in out
        assert "advice   :" in out
        assert "key      :" in out
        assert "DH beats naive" in out

    def test_algorithm_prices_the_model_per_node(self, capsys, monkeypatch):
        """Regression: the crossover line's model takes ``S`` = sockets per
        node (2), not the machine's total socket count (4 here)."""
        from repro.model import crossover

        seen = []
        original = crossover.model_params_for

        def recording(**kwargs):
            seen.append(kwargs["sockets"])
            return original(**kwargs)

        monkeypatch.setattr(crossover, "model_params_for", recording)
        assert main(["advise", "--algorithm", *SMALL, "--density", "0.3",
                     "--msg", "4KB", "--seed", "3"]) == 0
        assert seen == [2]

    def test_algorithm_under_risky_faults_advises_setup_free(self, capsys):
        assert main(["advise", "--algorithm", *SMALL, "--msg", "256",
                     "--faults", "setup_loss"]) == 0
        out = capsys.readouterr().out
        assert "fault=risky" in out
        assert "advice   : naive" in out

    def test_distill_writes_a_loadable_table(self, tmp_path, capsys):
        from repro.select import DecisionTable, default_table

        out_path = tmp_path / "table.json"
        assert main(["advise", "--distill", "--workers", "2", "--cache-dir",
                     str(tmp_path / "cache"), "--out", str(out_path)]) == 0
        out = capsys.readouterr().out
        assert "distilled table" in out
        table = DecisionTable.load(out_path)
        assert table.is_complete()
        # Distillation is deterministic: a fresh run over the same grid
        # reproduces the shipped artifact, version and all.
        assert table.version == default_table().version

    def test_regret_passes_gates_and_writes_report(self, tmp_path, capsys):
        import json

        report_path = tmp_path / "regret.json"
        assert main(["advise", "--regret", "--scenarios", "20", "--seed",
                     "7", "--out", str(report_path)]) == 0
        out = capsys.readouterr().out
        assert "geomean=" in out
        report = json.loads(report_path.read_text())
        assert report["experiment"] == "selection_regret"
        assert report["scenarios"] == 20
        assert report["non_survivable_picks"] == 0

    def test_regret_gate_failure_exits_one(self, capsys):
        # An impossible gate: geomean is always >= 1.0.
        assert main(["advise", "--regret", "--scenarios", "5", "--seed",
                     "7", "--max-regret", "0.5"]) == 1
        assert "exceeds" in capsys.readouterr().err

    def test_regret_inf_gate_checks_survivability_only(self, capsys):
        assert main(["advise", "--regret", "--scenarios", "5", "--seed",
                     "7", "--profile", "crash", "--max-regret", "inf"]) == 0
        assert "non_survivable_picks=0" in capsys.readouterr().out

    def test_regret_against_an_explicit_table(self, tmp_path, capsys):
        from repro.select import default_table

        path = default_table().save(tmp_path / "t.json")
        # Tiny draw: gate on survivability only (the geomean gate needs
        # the >= 100-scenario campaigns to be meaningful).
        assert main(["advise", "--regret", "--scenarios", "5", "--seed",
                     "7", "--table", str(path), "--max-regret", "inf"]) == 0
        assert default_table().version in capsys.readouterr().out


class TestFuzz:
    def test_clean_campaign_exits_zero(self, tmp_path, capsys):
        assert main(["fuzz", "--seed", "0", "--iterations", "15",
                     "--out-dir", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "15 iteration(s) clean" in out
        assert not list(tmp_path.iterdir())

    def test_injected_bug_exits_one_with_repro(self, tmp_path, capsys):
        assert main(["fuzz", "--iterations", "10",
                     "--inject-bug", "payload-corruption",
                     "--out-dir", str(tmp_path)]) == 1
        out = capsys.readouterr().out
        assert "FAILURE" in out and "shrunk to" in out
        repros = list(tmp_path.glob("repro_*.json"))
        assert len(repros) == 1
        # ... and --replay on the written file still reproduces.
        assert main(["fuzz", "--replay", str(repros[0])]) == 1
        assert "violation(s)" in capsys.readouterr().out

    def test_unknown_profile_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["fuzz", "--profile", "chaotic"])


class TestFuzzReplayErrors:
    """--replay on missing/corrupt repro files: one line on stderr, exit 1,
    never a traceback."""

    def test_missing_file(self, tmp_path, capsys):
        missing = tmp_path / "nope.json"
        assert main(["fuzz", "--replay", str(missing)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: cannot replay")
        assert err.count("\n") == 1

    def test_corrupt_json(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert main(["fuzz", "--replay", str(bad)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: cannot replay")
        assert err.count("\n") == 1

    def test_missing_scenario_key(self, tmp_path, capsys):
        import json

        stub = tmp_path / "stub.json"
        stub.write_text(json.dumps({"violations": []}))
        assert main(["fuzz", "--replay", str(stub)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: cannot replay")
        assert "scenario" in err
        assert err.count("\n") == 1


class TestBenchReferenceErrors:
    """Corrupt golden/baseline reference files: one line on stderr, exit 1."""

    def test_corrupt_baseline(self, tmp_path, capsys, monkeypatch):
        import repro.bench.wallclock as wallclock

        bad = tmp_path / "baseline.json"
        bad.write_text("{truncated")
        monkeypatch.setattr(wallclock, "DEFAULT_BASELINE", bad)
        assert main(["bench", "--wallclock", "--smoke", "--scale", "small",
                     "--out", str(tmp_path / "out.json")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: corrupt or unreadable baseline")
        assert err.count("\n") == 1

    def test_corrupt_golden(self, tmp_path, capsys, monkeypatch):
        import repro.bench.wallclock as wallclock

        bad = tmp_path / "golden.json"
        bad.write_text("[1, 2,")
        monkeypatch.setattr(wallclock, "DEFAULT_GOLDEN", bad)
        monkeypatch.setattr(wallclock, "DEFAULT_BASELINE",
                            tmp_path / "missing.json")
        # The golden check only runs on non-smoke grids; a non-dict payload
        # must also be rejected, so cover that shape too.
        bad.write_text("[]")
        monkeypatch.setattr(wallclock, "FULL_DENSITIES", (0.3,))
        monkeypatch.setattr(wallclock, "FULL_SIZES", ("1KB",))
        from repro.bench.config import BenchScale

        tiny = BenchScale(name="small", ranks=8, ranks_per_socket=2,
                          densities=(0.3,), sizes=("1KB",), moore_ranks=8)
        monkeypatch.setattr("repro.bench.config._SCALES",
                            {"small": tiny}, raising=True)
        assert main(["bench", "--wallclock", "--scale", "small",
                     "--repeats", "1",
                     "--out", str(tmp_path / "out.json")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: corrupt")
        assert "golden" in err
