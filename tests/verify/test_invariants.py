"""The invariant battery: green on healthy runs, red on doctored ones."""

import copy
import dataclasses
import math

import pytest

from repro.exec.spec import MachineSpec, TopologySpec
from repro.verify import Scenario, generate_scenario, run_trial
from repro.verify.differential import ALGORITHMS
from repro.verify.invariants import (
    InvariantViolation,
    assert_invariants,
    check_cross_algorithm,
    check_dh_structure,
    check_hybrid_equivalence,
    check_payload_equivalence,
    check_relabel_conservation,
    check_size_monotonicity,
    check_trace_conservation,
    relabel_topology,
    run_invariants,
    socket_permutation,
)
from repro.collectives.runner import RunOptions


@pytest.fixture(scope="module")
def clean_trial():
    """One healthy mid-size trial shared by the doctoring tests."""
    scenario = Scenario(
        topology=TopologySpec("random", 16, density=0.3, seed=9),
        machine=MachineSpec(nodes=2, sockets_per_node=2, ranks_per_socket=4),
        msg_size=512,
        options=RunOptions(trace=True),
    )
    trial = run_trial(scenario)
    assert trial.ok, [str(v) for v in trial.violations]
    return trial


class TestHealthyRuns:
    def test_full_battery_green_on_clean_scenarios(self):
        for i in range(5):
            trial = run_trial(generate_scenario(11, i))
            assert trial.ok, [str(v) for v in trial.violations]

    def test_assert_invariants_passes(self, clean_trial):
        topology = clean_trial.scenario.topology.build()
        assert_invariants(clean_trial.scenario, topology, clean_trial.runs)

    def test_all_algorithms_ran(self, clean_trial):
        assert set(clean_trial.runs) == set(ALGORITHMS)


class TestDoctoredRuns:
    """Each detector must fire when its law is broken by hand."""

    def test_payload_corruption_detected(self, clean_trial):
        topology = clean_trial.scenario.topology.build()
        runs = {k: copy.copy(v) for k, v in clean_trial.runs.items()}
        runs["naive"] = dataclasses.replace(
            runs["naive"],
            results=[dict(r) for r in runs["naive"].results],
        )
        victim = next(r for r in runs["naive"].results if r)
        victim[next(iter(victim))] = "garbage"
        violations = check_payload_equivalence(topology, runs)
        assert any(v.invariant == "payload_equivalence" for v in violations)

    def test_cross_algorithm_disagreement_detected(self, clean_trial):
        runs = dict(clean_trial.runs)
        runs["distance_halving"] = dataclasses.replace(
            runs["distance_halving"],
            results=[dict(r) for r in runs["distance_halving"].results],
        )
        victim = next(r for r in runs["distance_halving"].results if r)
        victim[next(iter(victim))] = "garbage"
        violations = check_cross_algorithm(runs)
        assert any(v.invariant == "cross_algorithm" for v in violations)

    def test_missing_block_detected_as_neighbor_set(self, clean_trial):
        topology = clean_trial.scenario.topology.build()
        runs = {"naive": dataclasses.replace(
            clean_trial.runs["naive"],
            results=[dict(r) for r in clean_trial.runs["naive"].results],
        )}
        victim = next(r for r in runs["naive"].results if r)
        victim.pop(next(iter(victim)))
        violations = check_payload_equivalence(topology, runs)
        assert violations and violations[0].data["kind"] == "neighbor_set"

    def test_trace_undercount_detected(self, clean_trial):
        run = clean_trial.runs["naive"]
        doctored = dataclasses.replace(
            run, trace_summary=copy.deepcopy(run.trace_summary)
        )
        for counters in doctored.trace_summary.values():
            if counters["messages"]:
                counters["messages"] -= 1
                break
        violations = check_trace_conservation(
            clean_trial.scenario, {"naive": doctored}
        )
        assert any("engine counted" in v.detail or "delivered" in v.detail
                   for v in violations)

    def test_phantom_loss_detected_on_clean_plan(self, clean_trial):
        run = clean_trial.runs["naive"]
        doctored = dataclasses.replace(
            run, trace_summary=copy.deepcopy(run.trace_summary)
        )
        for counters in doctored.trace_summary.values():
            if counters["messages"]:
                counters["lost_messages"] += 1
                counters["delivered_messages"] -= 1
                break
        violations = check_trace_conservation(
            clean_trial.scenario, {"naive": doctored}
        )
        assert any("lost" in v.detail for v in violations)

    def test_missing_summary_detected_when_tracing(self, clean_trial):
        doctored = dataclasses.replace(
            clean_trial.runs["naive"], trace_summary=None
        )
        violations = check_trace_conservation(
            clean_trial.scenario, {"naive": doctored}
        )
        assert violations and "trace_summary" in violations[0].detail

    def test_monotonicity_violation_detected(self, clean_trial):
        # A falsified large-size time *below* any achievable small-size
        # time makes the halved-size rerun look slower.
        doctored = dataclasses.replace(
            clean_trial.runs["naive"], simulated_time=1e-12
        )
        violations = check_size_monotonicity(
            clean_trial.scenario, {"naive": doctored}
        )
        assert any(v.invariant == "size_monotonicity" for v in violations)

    def test_auto_time_drift_detected(self, clean_trial):
        # One ulp off the DES is a violation: auto is an exact replay.
        base = clean_trial.runs["naive"]
        doctored = dataclasses.replace(
            base, simulated_time=math.nextafter(base.simulated_time, math.inf),
        )
        violations = check_hybrid_equivalence(
            clean_trial.scenario, {"naive": doctored}
        )
        assert any("bit-identically" in v.detail for v in violations)

    def test_naive_traffic_change_detected_under_relabeling(self, clean_trial):
        topology = clean_trial.scenario.topology.build()
        doctored = dataclasses.replace(
            clean_trial.runs["naive"],
            messages_sent=clean_trial.runs["naive"].messages_sent + 1,
        )
        violations = check_relabel_conservation(
            clean_trial.scenario, topology, {"naive": doctored}
        )
        assert any("totals changed" in v.detail for v in violations)


class TestRelabeling:
    def test_socket_permutation_is_machine_automorphic(self):
        perm = socket_permutation(16, 4, seed=3)
        assert sorted(perm) == list(range(16))
        for r, p in enumerate(perm):
            assert r // 4 == p // 4  # never leaves its socket

    def test_relabel_topology_preserves_edge_count_and_degrees(self):
        topo = TopologySpec("random", 12, density=0.4, seed=2).build()
        perm = socket_permutation(12, 4, seed=5)
        relabeled = relabel_topology(topo, perm)
        assert relabeled.n_edges == topo.n_edges
        for r in range(12):
            assert relabeled.outdegree(perm[r]) == topo.outdegree(r)
            assert relabeled.indegree(perm[r]) == topo.indegree(r)


class TestDHStructure:
    def test_green_on_structured_and_random_topologies(self):
        for spec in (
            TopologySpec("random", 16, density=0.3, seed=1),
            TopologySpec("random", 16, density=0.4, seed=2, self_loops=True),
            TopologySpec("moore", 16, radius=1, dims=2),
        ):
            scenario = Scenario(
                topology=spec,
                machine=MachineSpec(nodes=2, sockets_per_node=2,
                                    ranks_per_socket=4),
                msg_size=64,
                options=RunOptions(trace=True),
            )
            assert check_dh_structure(scenario, spec.build()) == []

    def test_battery_skips_dh_structure_after_fallback(self):
        # A fallback run executed naive's schedule; DH pattern checks
        # would assert properties of code that never ran.
        scenario = generate_scenario(0, 0)
        trial = run_trial(scenario)
        fallback_run = dataclasses.replace(
            trial.runs["distance_halving"], requested_algorithm="distance_halving"
        )
        runs = dict(trial.runs, distance_halving=fallback_run)
        topology = scenario.topology.build()
        violations = run_invariants(scenario, topology, runs, metamorphic=False)
        assert not any(v.invariant == "dh_structure" for v in violations)


class TestInvariantViolationError:
    def test_error_carries_structured_violations(self, clean_trial):
        topology = clean_trial.scenario.topology.build()
        runs = {"naive": dataclasses.replace(
            clean_trial.runs["naive"],
            results=[dict(r) for r in clean_trial.runs["naive"].results],
        )}
        victim = next(r for r in runs["naive"].results if r)
        victim[next(iter(victim))] = "garbage"
        with pytest.raises(InvariantViolation) as excinfo:
            assert_invariants(clean_trial.scenario, topology, runs)
        assert excinfo.value.violations
        assert isinstance(excinfo.value, AssertionError)
        assert "payload_equivalence" in str(excinfo.value)
