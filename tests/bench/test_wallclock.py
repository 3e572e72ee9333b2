"""Tests for the sim-core wall-clock harness (and its CLI entry point)."""

import json
import statistics

import pytest

from repro.bench.config import get_scale
from repro.bench.wallclock import (
    ALGORITHMS,
    FULL_DENSITIES,
    FULL_SIZES,
    build_cases,
    wallclock_bench,
)
from repro.cli import main
from repro.sim.plancache import reset_plan_cache

SMALL = get_scale("small")


class TestBuildCases:
    def test_full_grid_shape(self):
        cases = build_cases(SMALL)
        assert len(cases) == len(ALGORITHMS) * len(FULL_DENSITIES) * len(FULL_SIZES)
        assert {c.algorithm for c in cases} == set(ALGORITHMS)
        assert all(c.ranks == SMALL.ranks for c in cases)

    def test_smoke_grid_is_tiny(self):
        cases = build_cases(SMALL, smoke=True)
        assert len(cases) == len(ALGORITHMS)
        assert all(c.ranks == 4 * SMALL.ranks_per_socket for c in cases)


class TestWallclockBench:
    def test_smoke_run_writes_report(self, tmp_path):
        out = tmp_path / "bench.json"
        payload = wallclock_bench(
            scale=SMALL, repeats=2, smoke=True, out_path=out,
            baseline_path=tmp_path / "missing.json",
        )
        assert out.is_file()
        on_disk = json.loads(out.read_text())
        assert on_disk["experiment"] == "sim_core_wallclock"
        assert on_disk["smoke"] is True
        assert len(on_disk["cases"]) == len(ALGORITHMS)
        for case in on_disk["cases"]:
            assert case["simulated_time"] > 0
            assert case["messages_sent"] > 0
            assert len(case["wall_seconds"]) == 2
            assert case["wall_median"] > 0
        # Disk payload and return value agree on the sim results.
        assert [c["simulated_time"] for c in on_disk["cases"]] == [
            c["simulated_time"] for c in payload["cases"]
        ]

    def test_baseline_record_then_compare(self, tmp_path):
        """Recording a baseline and re-running must report bit-identical sim
        times (deterministic engine)."""
        baseline = tmp_path / "baseline.json"
        wallclock_bench(
            scale=SMALL, repeats=1, smoke=True, out_path=None,
            baseline_path=baseline, record_baseline=True,
        )
        assert baseline.is_file()
        payload = wallclock_bench(
            scale=SMALL, repeats=1, smoke=True, out_path=None,
            baseline_path=baseline,
        )
        check = payload["baseline"]
        assert check["sim_time_identical"] is True
        assert check["checked_cases"] == len(ALGORITHMS)
        # The recorded walls come from whatever host recorded the baseline,
        # so no wall ratio against them is reported.
        assert set(check) == {"path", "checked_cases", "sim_time_identical"}

    def test_divergent_baseline_rejected(self, tmp_path):
        """A sim-time mismatch against the baseline must fail loudly — the
        harness asserts before/after equivalence, it does not just report."""
        baseline = tmp_path / "baseline.json"
        wallclock_bench(
            scale=SMALL, repeats=1, smoke=True, out_path=None,
            baseline_path=baseline, record_baseline=True,
        )
        recorded = json.loads(baseline.read_text())
        recorded["cases"][0]["simulated_time"] *= 2.0
        baseline.write_text(json.dumps(recorded))
        with pytest.raises(RuntimeError, match="diverged from the baseline"):
            wallclock_bench(
                scale=SMALL, repeats=1, smoke=True, out_path=None,
                baseline_path=baseline,
            )

    def test_invalid_repeats_rejected(self):
        with pytest.raises(ValueError, match="repeats"):
            wallclock_bench(scale=SMALL, repeats=0, smoke=True, out_path=None)

    def test_profile_attaches_top_n_rows(self, tmp_path):
        payload = wallclock_bench(
            scale=SMALL, repeats=1, smoke=True, out_path=None,
            baseline_path=tmp_path / "missing.json", profile=True,
        )
        for case in payload["cases"]:
            rows = case["profile"]
            assert 0 < len(rows) <= 15
            # sorted by cumulative time, JSON-friendly shape
            cums = [r["cumtime"] for r in rows]
            assert cums == sorted(cums, reverse=True)
            assert all({"function", "ncalls", "tottime", "cumtime"}
                       <= set(r) for r in rows)

    def test_payload_carries_plan_cache_stats(self, tmp_path):
        payload = wallclock_bench(
            scale=SMALL, repeats=2, smoke=True, out_path=None,
            baseline_path=tmp_path / "missing.json",
        )
        stats = payload["plan_cache"]
        assert {"hits", "misses", "evictions", "size", "max_entries",
                "hit_rate"} <= set(stats)
        # warm repeats within the harness itself must produce hits
        assert stats["hits"] > 0

    def test_payload_counts_collections_per_path(self, tmp_path):
        payload = wallclock_bench(
            scale=SMALL, repeats=2, smoke=True, out_path=None,
            baseline_path=tmp_path / "missing.json",
        )
        for case in payload["cases"]:
            assert set(case["gc_collections"]) == {"des", "auto"}
            assert all(len(gens) == 3 and min(gens) >= 0
                       for gens in case["gc_collections"].values())
        for path in ("des", "auto"):
            assert payload["gc_collections"][path] == [
                sum(case["gc_collections"][path][g] for case in payload["cases"])
                for g in range(3)
            ]
        assert payload["kernel_s"] > 0
        assert payload["auto_total_wall"] == pytest.approx(
            sum(case["wall_median_auto"] for case in payload["cases"]))
        assert payload["auto_total_kernels"] == pytest.approx(sum(
            statistics.median(case["auto_wall_kernels"]) for case in payload["cases"]))

    def test_des_only_grid_has_no_auto_total(self, tmp_path):
        payload = wallclock_bench(
            scale=SMALL, repeats=1, smoke=True, out_path=None,
            baseline_path=tmp_path / "missing.json", sim_mode="des",
        )
        assert "auto_total_kernels" not in payload
        assert payload["gc_collections"]["auto"] == [0, 0, 0]


class TestCli:
    def test_bench_wallclock_smoke(self, tmp_path, capsys):
        """The tier-1 wallclock smoke invocation: must run in seconds and
        emit the report + table."""
        out = tmp_path / "BENCH_sim_core.json"
        assert main([
            "bench", "--wallclock", "--smoke", "--scale", "small",
            "--out", str(out),
        ]) == 0
        assert out.is_file()
        assert "sim-core wallclock" in capsys.readouterr().out

    def test_bench_without_figure_or_wallclock_errors(self, capsys):
        assert main(["bench"]) == 2
        assert "figure name is required" in capsys.readouterr().err

    def test_profile_flag_prints_tables(self, tmp_path, capsys):
        out = tmp_path / "BENCH_sim_core.json"
        assert main([
            "bench", "--wallclock", "--smoke", "--scale", "small",
            "--profile", "--out", str(out),
        ]) == 0
        assert "profile:" in capsys.readouterr().out
        payload = json.loads(out.read_text())
        assert all("profile" in c for c in payload["cases"])

    def test_auto_wall_gate_fails_when_unreachable(self, tmp_path, capsys):
        out = tmp_path / "BENCH_sim_core.json"
        assert main([
            "bench", "--wallclock", "--smoke", "--scale", "small",
            "--out", str(out), "--max-auto-wall-kernels", "1e-9",
        ]) == 1
        assert "exceeds the allowed" in capsys.readouterr().err

    def test_auto_wall_gate_needs_auto_cases(self, tmp_path, capsys):
        out = tmp_path / "BENCH_sim_core.json"
        assert main([
            "bench", "--wallclock", "--smoke", "--scale", "small",
            "--sim-mode", "des", "--out", str(out),
            "--max-auto-wall-kernels", "1e9",
        ]) == 2
        assert "time the hybrid path" in capsys.readouterr().err

    def test_plan_cache_gate(self, tmp_path, capsys):
        # Start cold: the plan cache is process-wide, so without the reset
        # the rate below would count plans compiled by earlier tests.
        reset_plan_cache()
        out = tmp_path / "BENCH_sim_core.json"
        # repeats >= 2 warms the plan cache within the run, so a modest
        # hit-rate floor passes...
        assert main([
            "bench", "--wallclock", "--smoke", "--scale", "small",
            "--repeats", "3", "--out", str(out),
            "--min-plan-cache-hit-rate", "0.01",
        ]) == 0
        assert json.loads(out.read_text())["repeats"] == 3  # --smoke keeps it
        capsys.readouterr()
        # ...while an impossible floor trips the gate.
        assert main([
            "bench", "--wallclock", "--smoke", "--scale", "small",
            "--out", str(out), "--min-plan-cache-hit-rate", "1.1",
        ]) == 1
        assert "plan-cache hit rate" in capsys.readouterr().err
