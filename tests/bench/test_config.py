"""Unit tests for benchmark scale configuration."""

import pytest

from repro.bench.config import ENV_VAR, bench_machine, get_scale


class TestGetScale:
    def test_default_is_small(self, monkeypatch):
        monkeypatch.delenv(ENV_VAR, raising=False)
        assert get_scale().name == "small"

    def test_env_var(self, monkeypatch):
        monkeypatch.setenv(ENV_VAR, "medium")
        assert get_scale().name == "medium"

    def test_explicit_name_wins(self, monkeypatch):
        monkeypatch.setenv(ENV_VAR, "medium")
        assert get_scale("large").name == "large"

    def test_unknown_scale(self):
        with pytest.raises(KeyError, match="unknown bench scale"):
            get_scale("galactic")

    def test_paper_scale_matches_paper(self):
        scale = get_scale("paper")
        assert scale.ranks == 2160
        assert scale.ranks_per_socket == 18
        assert scale.moore_ranks == 2048

    def test_all_scales_have_paper_density_grid(self):
        for name in ("small", "medium", "large", "paper"):
            scale = get_scale(name)
            assert scale.densities == (0.05, 0.1, 0.2, 0.3, 0.5, 0.7)


class TestBenchMachine:
    def test_exact_rank_count(self):
        machine = bench_machine(128, 8)
        assert machine.spec.n_ranks == 128
        assert machine.spec.sockets_per_node == 2

    def test_partial_node_rejected(self):
        with pytest.raises(ValueError, match="does not fill"):
            bench_machine(100, 8)

    def test_scales_build_their_machines(self):
        for name in ("small", "medium", "large"):
            scale = get_scale(name)
            machine = bench_machine(scale.ranks, scale.ranks_per_socket)
            assert machine.spec.n_ranks == scale.ranks


class TestSweepConfig:
    def test_library_default_is_serial_and_cacheless(self):
        from repro.bench.config import SweepConfig

        cfg = SweepConfig()
        assert cfg.workers == 1
        assert cfg.cache() is None

    def test_cache_is_shared_across_calls(self, tmp_path):
        from pathlib import Path as P

        from repro.bench.config import SweepConfig

        cfg = SweepConfig(cache_dir=tmp_path, use_cache=True)
        assert cfg.cache() is cfg.cache()
        assert cfg.cache().cache_dir == P(tmp_path)

    def test_resolve_scale_prefers_explicit_argument(self):
        from repro.bench.config import SweepConfig, get_scale

        small, medium = get_scale("small"), get_scale("medium")
        assert SweepConfig(scale=small).resolve_scale(medium) is medium
        assert SweepConfig(scale=small).resolve_scale() is small
        assert SweepConfig().resolve_scale().name == "small"

    def test_resolve_seed(self):
        from repro.bench.config import SweepConfig

        assert SweepConfig().resolve_seed(23) == 23
        assert SweepConfig(seed=7).resolve_seed(23) == 7

    def test_run_routes_through_orchestrator(self, tmp_path):
        from repro.bench.config import SweepConfig
        from repro.exec import MachineSpec, RunSpec, TopologySpec

        spec = RunSpec(
            "naive",
            TopologySpec("random", 8, density=0.5, seed=1),
            MachineSpec.for_ranks(8, ranks_per_socket=2),
            64,
        )
        cfg = SweepConfig(cache_dir=tmp_path, use_cache=True)
        first = cfg.run([spec])
        second = cfg.run([spec])
        assert first.runs[0].simulated_time == second.runs[0].simulated_time
        assert second.stats["from_cache"] == 1

    def test_run_grid_keys_runs_and_returns_stats(self, capsys):
        from repro.bench.config import SweepConfig
        from repro.exec import MachineSpec, RunSpec, TopologySpec

        machine = MachineSpec.for_ranks(8, ranks_per_socket=2)
        keyed = [
            ((alg,), RunSpec(alg, TopologySpec("random", 8, density=0.5, seed=1),
                             machine, 64))
            for alg in ("naive", "distance_halving")
        ]
        runs, stats = SweepConfig().run_grid(keyed, verbose=True)
        assert list(runs) == [("naive",), ("distance_halving",)]
        assert runs[("naive",)].algorithm == "naive"
        assert stats["total"] == stats["computed"] == 2
        assert "[exec] 2 runs: 0 from cache, 2 computed" in capsys.readouterr().out

    def test_run_grid_fails_on_any_failed_spec(self):
        from repro.bench.config import SweepConfig
        from repro.exec import MachineSpec, RunSpec, TopologySpec

        # 16 ranks on an 8-rank machine: setup raises inside the spec.
        bad = RunSpec("naive", TopologySpec("random", 16, density=0.5, seed=1),
                      MachineSpec.for_ranks(8, ranks_per_socket=2), 64)
        with pytest.raises(RuntimeError, match="1/1 specs failed"):
            SweepConfig().run_grid([(("bad",), bad)])
