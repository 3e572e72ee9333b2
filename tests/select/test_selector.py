"""Selection semantics: candidate sets, the ranking walk, survivability.

Includes the registry-completeness pin: the packaged table's candidate
set must equal the registry's oracle query, so registering a fifth
fuzz-oracle backend fails here until the table is re-distilled
(``repro advise --distill``) — and until then the selector still ranks
the newcomer (last) via :func:`repro.select.selector._merge_ranking`.
"""

from dataclasses import dataclass, replace

import pytest

from repro.cluster import Machine
from repro.collectives.base import list_algorithms
from repro.collectives.runner import RunOptions, run_allgather
from repro.select import (
    candidates_for,
    default_table,
    select,
    table_candidates,
)
from repro.select.distill import TABLE_REQUIRES
from repro.select.features import setup_message_bound
from repro.select.selector import (
    CANDIDATE_REQUIRES,
    _kwargs_for,
    _merge_ranking,
)
from repro.sim.faults import FaultPlan, MessageLoss, RankCrash, RetryPolicy
from repro.topology import erdos_renyi_topology

MACHINE = Machine.niagara_like(nodes=2, ranks_per_socket=4)
TOPOLOGY = erdos_renyi_topology(16, 0.3, seed=11)


class TestRegistryCompletenessPin:
    """Import-time contracts tying the table to the live registry."""

    def test_table_candidates_is_the_oracle_query(self):
        expected = tuple(
            (info.name, tuple(info.bench_kwargs))
            for info in list_algorithms(requires=TABLE_REQUIRES)
        )
        assert table_candidates() == expected

    def test_packaged_table_matches_the_registry(self):
        """A newly registered oracle backend changes table_candidates()
        but not the shipped artifact: this is the test that demands a
        re-distillation."""
        assert default_table().candidates == table_candidates()

    def test_every_candidate_set_is_registry_derived(self):
        for fault, requires in CANDIDATE_REQUIRES.items():
            expected = tuple(
                info.name for info in list_algorithms(requires=requires)
            )
            assert candidates_for(fault) == expected

    def test_only_setup_free_when_setup_can_starve(self):
        """``risky`` is the only class that restricts beyond the oracle
        set — and it restricts exactly to setup-free algorithms."""
        assert CANDIDATE_REQUIRES["risky"] == {"oracle", "setup_free"}
        assert candidates_for("risky") == ("naive",)
        for fault in ("clean", "perturbed", "crash"):
            assert CANDIDATE_REQUIRES[fault] == {"oracle"}
            assert candidates_for(fault) == tuple(
                name for name, _ in table_candidates()
            )

    def test_capability_less_backends_are_not_selectable(self):
        registered = {info.name for info in list_algorithms()}
        assert "hierarchical" in registered
        for fault in CANDIDATE_REQUIRES:
            assert "hierarchical" not in candidates_for(fault)


class TestMergeRanking:
    def test_filters_to_allowed(self):
        assert _merge_ranking(("a", "b", "c"), ("b", "a")) == ("a", "b")

    def test_appends_unranked_candidates_last(self):
        """A backend the table has never seen is still selectable —
        after every ranked candidate."""
        assert _merge_ranking(("a", "b"), ("b", "a", "new")) == (
            "a", "b", "new",
        )

    def test_kwargs_fall_back_to_the_registry(self):
        table = default_table()
        assert _kwargs_for("common_neighbor", table) == (("k", 4),)
        # Not a table candidate -> the registry's bench pin applies.
        assert _kwargs_for("hierarchical", table) == ()


class TestCleanSelection:
    def test_picks_the_table_winner(self):
        selection = select(TOPOLOGY, MACHINE, 1024)
        table = default_table()
        entry = table.lookup(selection.features.key())
        assert entry is not None
        assert selection.algorithm == entry.ranking[0]
        assert selection.source == entry.source
        assert selection.table_version == table.version
        assert selection.rejected == ()

    def test_instance_matches_the_pick(self):
        selection = select(TOPOLOGY, MACHINE, 1024)
        assert selection.instance.name == selection.algorithm

    def test_runner_resolves_auto_identically(self):
        selection = select(TOPOLOGY, MACHINE, 1024)
        run = run_allgather("auto", TOPOLOGY, MACHINE, 1024)
        direct = run_allgather(
            selection.instance, TOPOLOGY, MACHINE, 1024
        )
        assert run.selected_algorithm == selection.algorithm
        assert run.simulated_time == direct.simulated_time

    def test_auto_with_kwargs_rejected_by_runner(self):
        from repro.exec.spec import MachineSpec, RunSpec, TopologySpec

        with pytest.raises(ValueError, match="auto"):
            RunSpec(
                "auto",
                TopologySpec("random", 16, density=0.3, seed=11),
                MachineSpec(nodes=2, sockets_per_node=2, ranks_per_socket=4),
                1024,
                algorithm_kwargs=(("k", 2),),
            )


class TestSurvivabilityWalk:
    def test_risky_plan_selects_the_setup_free_fallback(self):
        plan = FaultPlan(
            losses=(MessageLoss(probability=0.9, start=0.0, end=0.0),),
            retry=RetryPolicy(max_retries=8),
        )
        options = RunOptions(fault_plan=plan, fallback="naive")
        selection = select(TOPOLOGY, MACHINE, 1024, options)
        assert selection.features.fault == "risky"
        assert selection.algorithm == "naive"

    def test_crash_plan_still_selects_among_the_full_field(self):
        plan = FaultPlan(crashes=(RankCrash(rank=1, time=1e-6),))
        options = RunOptions(fault_plan=plan, fallback="naive",
                             on_failure="degrade")
        selection = select(TOPOLOGY, MACHINE, 1024, options)
        assert selection.features.fault == "crash"
        assert selection.algorithm in candidates_for("crash")

    def test_walk_rejects_non_survivable_setups(self):
        """Candidates whose *actual* setup traffic the plan would starve
        are rejected in ranking order; the first survivor wins."""
        n = TOPOLOGY.n

        @dataclass(frozen=True)
        class HolePlan(FaultPlan):
            # Survivable at the conservative bound (so the fault class
            # stays "perturbed" and the full field is walked) but not at
            # any real nonzero setup count: only setup-free survives.
            def setup_survivable(self, protocol_messages: int) -> bool:
                return (protocol_messages == 0
                        or protocol_messages >= setup_message_bound(n))

        plan = HolePlan(losses=(MessageLoss(probability=0.01),))
        options = RunOptions(fault_plan=plan, fallback="naive")
        selection = select(TOPOLOGY, MACHINE, 1024, options)
        assert selection.features.fault == "perturbed"
        assert selection.algorithm == "naive"
        # Everything ranked ahead of naive was walked and rejected.
        ranked_ahead = selection.ranking[
            : selection.ranking.index("naive")
        ]
        assert selection.rejected == ranked_ahead
        assert len(selection.rejected) >= 1

    def test_no_survivor_fails_loudly(self):
        n = TOPOLOGY.n

        @dataclass(frozen=True)
        class StarvePlan(FaultPlan):
            # Passes the conservative pre-classification bound but fails
            # every actual setup, even setup-free ones.
            def setup_survivable(self, protocol_messages: int) -> bool:
                return protocol_messages >= setup_message_bound(n)

        plan = StarvePlan(losses=(MessageLoss(probability=0.01),))
        options = RunOptions(fault_plan=plan, fallback="naive")
        with pytest.raises(RuntimeError, match="no candidate survives"):
            select(TOPOLOGY, MACHINE, 1024, options)


class TestAnalyticFallback:
    def test_uncovered_key_resolves_analytically(self):
        """A table with zero entries forces the Hockney-model fallback —
        selection stays total over the key space."""
        table = replace(default_table(), entries={})
        selection = select(TOPOLOGY, MACHINE, 1024, table=table)
        assert selection.source == "analytic-fallback"
        assert selection.algorithm in candidates_for("clean")
        assert set(selection.ranking) == set(candidates_for("clean"))

    def test_model_is_priced_with_sockets_per_node(self, monkeypatch):
        """Regression: ``S`` of Eqs. 5 and 8 is sockets per node.  The
        fallback and the distilled prior passed a total socket count (4 on
        this machine; n / 8 per prior bucket)."""
        import importlib

        from repro.model.crossover import model_params_for
        from repro.select import selector

        # The package exports the function distill() over its module's name.
        distill = importlib.import_module("repro.select.distill")
        seen = []

        def recording(**kwargs):
            seen.append(kwargs["sockets"])
            return model_params_for(**kwargs)

        monkeypatch.setattr(selector, "model_params_for", recording)
        monkeypatch.setattr(distill, "model_params_for", recording)
        select(TOPOLOGY, MACHINE, 1024, table=replace(default_table(), entries={}))
        assert seen == [MACHINE.spec.sockets_per_node]
        seen.clear()
        distill.analytic_prior(("naive", "distance_halving"), 1e-6, 1e9)
        assert seen and set(seen) == {distill.CALIBRATION_SHAPE["sockets_per_node"]}
