"""Smoke + structure tests for the per-figure drivers at a tiny scale."""

import pytest

import repro.bench.reporting as reporting
from repro.bench.config import BenchScale
from repro.bench.figures import (
    ablation_agent_policy,
    ablation_stop_granularity,
    ext_alltoall,
    fig2_model,
    fig4_latency,
    fig5_speedup_scaling,
    fig6_moore,
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

    def test_verbose_prints_table(self, isolated_results, capsys):
        fig8_overhead(TINY, verbose=True)
        out = capsys.readouterr().out
        assert "Fig. 8" in out and "density" in out
