"""Hockney-crossover helpers feeding the adaptive-selection prior."""

import pytest

from repro.model.crossover import (
    MODELED,
    analytic_ranking,
    crossover_density,
    crossover_size,
    model_params_for,
    predicted_times,
)

PARAMS = model_params_for(n=512, sockets=64, ranks_per_socket=8,
                          alpha=2e-6, beta=8e9)


class TestModelParamsFor:
    def test_clamps_ranks_per_socket_to_the_communicator(self):
        params = model_params_for(n=2, sockets=1, ranks_per_socket=8,
                                  alpha=1e-6, beta=1e9)
        assert params.ranks_per_socket == 2

    def test_degenerate_inputs_stay_positive(self):
        params = model_params_for(n=0, sockets=0, ranks_per_socket=0,
                                  alpha=1e-6, beta=1e9)
        assert params.n >= 1 and params.sockets >= 1
        assert params.ranks_per_socket >= 1


class TestAnalyticRanking:
    def test_modeled_pair_ordered_by_predicted_time(self):
        for delta in (0.05, 0.3, 0.9):
            times = predicted_times(PARAMS, delta, 4096.0)
            ranking = analytic_ranking(PARAMS, delta, 4096.0)
            assert set(ranking) == set(MODELED)
            assert times[ranking[0]] <= times[ranking[1]]

    def test_unmodeled_candidates_follow_in_given_order(self):
        candidates = ("naive", "common_neighbor", "distance_halving",
                      "bruck")
        ranking = analytic_ranking(PARAMS, 0.3, 4096.0,
                                   candidates=candidates)
        assert set(ranking) == set(candidates)
        assert ranking[2:] == ("common_neighbor", "bruck")


class TestCrossovers:
    def test_density_crossover_brackets_the_flip(self):
        cross = crossover_density(PARAMS, 65536.0)
        if cross is None:
            pytest.skip("naive predicted best at every density")
        above = predicted_times(PARAMS, min(1.0, cross + 0.01), 65536.0)
        assert above["distance_halving"] < above["naive"]

    def test_size_crossover_consistent_with_predictions(self):
        cross = crossover_size(PARAMS, 0.6)
        if cross is None:
            below = predicted_times(PARAMS, 0.6, float(1 << 24))
            assert below["naive"] <= below["distance_halving"]
        else:
            at = predicted_times(PARAMS, 0.6, float(cross))
            assert at["distance_halving"] < at["naive"]

    def test_crossovers_agree_with_the_ranking(self):
        cross = crossover_density(PARAMS, 65536.0)
        if cross is None:
            pytest.skip("no crossover at this size")
        hi = analytic_ranking(PARAMS, min(1.0, cross + 0.05), 65536.0)
        assert hi[0] == "distance_halving"

