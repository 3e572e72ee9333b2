"""Unit tests for the orchestrated smoke grids."""

from repro.bench.config import SweepConfig
from repro.bench.sweep import PAPER_SMOKE, smoke_sweep


class TestSmokeSweep:
    def test_cold_then_warm_answers_from_cache(self, tmp_path):
        cold = smoke_sweep(SweepConfig(cache_dir=tmp_path, use_cache=True))
        warm = smoke_sweep(
            SweepConfig(cache_dir=tmp_path, use_cache=True, workers=2)
        )
        assert cold["execution"]["computed"] == cold["execution"]["total"]
        assert warm["execution"]["from_cache"] == warm["execution"]["total"]
        assert warm["execution"]["cache"]["hit_rate"] == 1.0
        # The determinism contract: cached records == computed records.
        assert warm["records"] == cold["records"]

    def test_cacheless_run_computes_everything(self):
        report = smoke_sweep(SweepConfig())
        assert report["execution"]["computed"] == report["execution"]["total"]
        assert "cache" not in report["execution"]
        assert report["sim_mode"] == "des"
        assert all(r["sim_path"] == "des" for r in report["records"])


class TestPaperSmokeSweep:
    """Shape test at a tiny rank count; CI runs the real 2160-rank slice."""

    def test_runs_in_auto_mode_and_reports_sim_path(self, tmp_path):
        grid = {**PAPER_SMOKE, "ranks": 32, "ranks_per_socket": 4}
        config = SweepConfig(cache_dir=tmp_path, use_cache=True, sim_mode="auto")
        cold = smoke_sweep(config, **grid)
        assert cold["sim_mode"] == "auto"
        assert cold["execution"]["computed"] == cold["execution"]["total"]
        # Auto mode must never silently fall back to the engine here (the
        # slice has no faults, no trace, and a jitter-free machine), and it
        # always replays exactly.
        assert all(r["sim_path"] == "fastpath" for r in cold["records"])
        warm = smoke_sweep(
            SweepConfig(cache_dir=tmp_path, use_cache=True, sim_mode="auto"),
            **grid,
        )
        assert warm["execution"]["cache"]["hit_rate"] == 1.0
        # sim_path must survive the cache round-trip (serialize.py).
        assert warm["records"] == cold["records"]
