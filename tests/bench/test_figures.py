"""Smoke + structure tests for the per-figure drivers at a tiny scale."""

import dataclasses

import pytest

import repro.bench.reporting as reporting
from repro.bench.config import BenchScale, SweepConfig
from repro.bench.figures import (
    ablation_agent_policy,
    ablation_stop_granularity,
    ext_alltoall,
    ext_network_sensitivity,
    fig2_model,
    fig4_latency,
    fig5_speedup_scaling,
    fig6_moore,
    fig6_variance_study,
    fig7_spmm,
    fig8_overhead,
)

TINY = BenchScale(
    name="tiny",
    ranks=32,
    ranks_per_socket=4,
    densities=(0.1, 0.5),
    sizes=("64", "16KB"),
    moore_ranks=32,
)


@pytest.fixture(autouse=True)
def isolated_results(tmp_path, monkeypatch):
    monkeypatch.setattr(reporting, "RESULTS_DIR", tmp_path)
    yield tmp_path


class TestDrivers:
    def test_fig2(self, isolated_results):
        payload = fig2_model(TINY, verbose=False)
        assert payload["params"]["n"] == 2000  # always at paper scale
        assert len(payload["rows"]) > 0
        assert (isolated_results / "fig2_model.json").exists()

    def test_fig4(self, isolated_results):
        payload = fig4_latency(TINY, verbose=False)
        assert len(payload["rows"]) == len(TINY.densities) * len(TINY.sizes)
        row = payload["rows"][0]
        assert {"density", "msg_size", "measured_speedup", "model_speedup"} <= set(row)
        assert (isolated_results / "fig4_latency.json").exists()

    def test_fig5(self, isolated_results):
        payload = fig5_speedup_scaling(TINY, verbose=False)
        assert len(payload["rank_counts"]) == 3
        assert payload["rank_counts"][0] == 32
        assert payload["summary"]
        assert all(r["dh_speedup"] > 0 for r in payload["rows"])

    def test_fig6(self, isolated_results):
        payload = fig6_moore(TINY, verbose=False)
        assert {(r["r"], r["d"]) for r in payload["rows"]} == {
            (1, 2), (2, 2), (3, 2), (1, 3), (2, 3)
        }
        assert all(r["msg_size"] in (4096, 262144, 4194304) for r in payload["rows"])

    def test_fig6_variance_spreads_latency(self, isolated_results):
        """Each draw of the placement lottery moves the latency."""
        payload = fig6_variance_study(TINY, verbose=False, placements=6)
        rows = {r["algorithm"]: r for r in payload["rows"]}
        naive, dh = rows["naive"], rows["distance_halving"]
        assert len(naive["samples"]) == len(dh["samples"]) == 6
        assert naive["std"] > 0.0 and naive["min"] < naive["max"]

    def test_fig6_variance_deterministic_by_seed(self, isolated_results):
        """The placements are seeded, so a rerun draws the same lottery."""
        first = fig6_variance_study(TINY, verbose=False, placements=4)
        again = fig6_variance_study(TINY, verbose=False, placements=4)
        assert again["rows"] == first["rows"]

    def test_fig6_variance_dh_more_stable(self, isolated_results):
        """The Fig. 6 stability claim on 128 ranks: Distance Halving is
        faster and no less stable across placements."""
        scale = dataclasses.replace(TINY, ranks_per_socket=8, moore_ranks=128)
        payload = fig6_variance_study(scale, verbose=False, placements=6)
        rows = {r["algorithm"]: r for r in payload["rows"]}
        naive, dh = rows["naive"], rows["distance_halving"]
        assert dh["mean"] < naive["mean"]
        assert dh["cv"] <= naive["cv"] * 1.5

    def test_fig7(self, isolated_results):
        payload = fig7_spmm(TINY, verbose=False)
        assert len(payload["rows"]) == 7
        assert all(r["dh_speedup"] > 0 and r["cn_speedup"] > 0 for r in payload["rows"])

    def test_fig8(self, isolated_results):
        payload = fig8_overhead(TINY, verbose=False)
        assert len(payload["rows"]) == len(TINY.densities)
        assert all(r["dh_setup_messages"] > 0 for r in payload["rows"])

    def test_ablation_agent_policy(self, isolated_results):
        payload = ablation_agent_policy(TINY, verbose=False)
        assert all(r["random_over_aware"] > 0 for r in payload["rows"])

    def test_ablation_stop_granularity(self, isolated_results):
        payload = ablation_stop_granularity(TINY, verbose=False)
        assert all(r["single_over_socket"] > 0 for r in payload["rows"])

    def test_ext_alltoall(self, isolated_results):
        payload = ext_alltoall(TINY, verbose=False)
        assert len(payload["rows"]) == len(TINY.densities) * 2  # 64 B and 4 KB
        assert {r["msg_size"] for r in payload["rows"]} == {64, 4096}
        for row in payload["rows"]:
            assert row["naive_messages"] >= row["dh_messages"] > 0
            assert row["speedup"] > 0 and row["cn_speedup"] > 0
        assert (isolated_results / "ext_alltoall.json").exists()

    def test_ext_alltoall_sets_up_once(self, isolated_results, monkeypatch):
        """One backend per (topology, algorithm, k) serves both message
        sizes: one Distance Halving pattern per topology, one Common
        Neighbor plan per (topology, k)."""
        from repro.bench.sweep import DEFAULT_CN_KS
        from repro.collectives import alltoall, common_neighbor

        calls = {"build_patterns": 0, "_plan": 0}

        def counting(module, name):
            original = getattr(module, name)

            def counted(*args, **kwargs):
                calls[name] += 1
                return original(*args, **kwargs)

            monkeypatch.setattr(module, name, counted)

        counting(alltoall, "build_patterns")
        counting(common_neighbor, "_plan")
        ext_alltoall(TINY, verbose=False)
        assert calls == {"build_patterns": len(TINY.densities),
                         "_plan": len(TINY.densities) * len(DEFAULT_CN_KS)}

    def test_ext_network_sensitivity_sets_up_once(self, isolated_results, monkeypatch):
        """One set-up instance per algorithm and network serves both message
        sizes, so the pattern is built once and amortised across them."""
        from repro.collectives import runner

        calls = []
        original = runner.run_allgather

        def recording(algorithm, *args, **kwargs):
            run = original(algorithm, *args, **kwargs)
            calls.append((algorithm, run))
            return run

        monkeypatch.setattr(runner, "run_allgather", recording)
        payload = ext_network_sensitivity(TINY, verbose=False)
        assert len(payload["rows"]) == 6  # three networks x two sizes
        dh = [(alg, run) for alg, run in calls if run.algorithm == "distance_halving"]
        instances = list({id(alg): alg for alg, _ in dh}.values())
        assert len(instances) == 3
        for instance in instances:
            small, large = [run for alg, run in dh if alg is instance]
            assert (small.msg_size, large.msg_size) == (64, 65536)
            assert small.setup_stats is large.setup_stats

    def test_verbose_prints_table(self, isolated_results, capsys):
        fig8_overhead(TINY, verbose=True)
        out = capsys.readouterr().out
        assert "Fig. 8" in out and "density" in out


class _GridBuilt(Exception):
    """Raised in place of running a grid: its specs were captured."""


@pytest.mark.parametrize("driver", [
    fig4_latency, fig5_speedup_scaling, fig6_moore, fig6_variance_study,
    ablation_agent_policy, ablation_stop_granularity,
])
def test_sim_mode_reaches_every_spec(driver, monkeypatch):
    captured = []

    def run(self, specs):
        captured.extend(specs)
        raise _GridBuilt

    monkeypatch.setattr(SweepConfig, "run", run)
    with pytest.raises(_GridBuilt):
        driver(TINY, verbose=False, config=SweepConfig(sim_mode="auto"))
    assert captured
    assert all(spec.options.sim_mode == "auto" for spec in captured)


def test_best_tuned_picks_minimum_per_size(small_machine):
    """Common Neighbor's reported K is the fastest of its tuning sweep, in
    every grid cell (paper: "various values of K ... we report the best
    results")."""
    from repro.bench.figures import _best_tuned
    from repro.collectives.base import algorithm_info, get_algorithm
    from repro.collectives.runner import run_allgather
    from repro.topology import erdos_renyi_topology

    info = algorithm_info("common_neighbor")
    (param, ks), = info.tuning
    topo = erdos_renyi_topology(small_machine.spec.n_ranks, 0.5, seed=31)
    for size in (64, 65536):
        runs = {
            (size, f"{info.label}{k}"): run_allgather(
                get_algorithm("common_neighbor", **{param: k}), topo,
                small_machine, size,
            )
            for k in ks
        }
        winner, best_k = _best_tuned(runs, (size,), info)
        assert winner.simulated_time == min(r.simulated_time for r in runs.values())
        assert best_k in ks and runs[(size, f"{info.label}{best_k}")] is winner


def test_speedup_columns_report_the_best_k():
    """The paper's methodology for Common Neighbor ("various values of K
    ... we report the best results"): the fastest K wins, the first one on
    a tie, and speedups divide the baseline's time by the winner's."""
    from types import SimpleNamespace

    from repro.bench.figures import _speedup_columns

    def run(time, **extras):
        return SimpleNamespace(simulated_time=time,
                               setup_stats=SimpleNamespace(extras=extras))

    key = (0.3, "4KB")
    runs = {
        (*key, "naive"): run(8.0),
        (*key, "cn2"): run(5.0, k=2),
        (*key, "cn4"): run(2.0, k=4),
        (*key, "cn8"): run(2.0, k=8),
        (*key, "dh"): run(4.0),
        (*key, "bruck"): run(16.0),
    }
    cols, speedups = _speedup_columns(runs, key)
    assert cols["cn_best_k"] == 4 and cols["cn_time"] == 2.0
    assert speedups == {"cn": 4.0, "dh": 2.0, "bruck": 0.5}
    assert cols["naive_time"] == 8.0 and cols["dh_speedup"] == 2.0
