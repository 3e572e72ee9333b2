"""Unit tests for the algorithm interface and registry."""

import pytest

from repro.collectives.base import (
    ExecutionContext,
    NeighborhoodAllgatherAlgorithm,
    SetupStats,
    algorithm_info,
    available_algorithms,
    get_algorithm,
    list_algorithms,
    register_algorithm,
)
from repro.sim.engine import Engine
from repro.topology import erdos_renyi_topology


class TestRegistry:
    def test_builtins_registered(self):
        assert set(available_algorithms()) >= {
            "naive",
            "common_neighbor",
            "distance_halving",
        }

    def test_get_algorithm_instantiates(self):
        alg = get_algorithm("naive")
        assert alg.name == "naive"
        assert not alg.is_setup

    def test_get_algorithm_passes_kwargs(self):
        alg = get_algorithm("common_neighbor", k=8)
        assert alg.k == 8

    def test_unknown_name(self):
        with pytest.raises(KeyError, match="unknown algorithm"):
            get_algorithm("telepathy")

    def test_duplicate_registration_rejected(self):
        class Dup(NeighborhoodAllgatherAlgorithm):
            name = "naive"

            def _build(self, topology, machine):
                return SetupStats()

            def rank_ops(self, ctx, rank):
                return None

        with pytest.raises(ValueError, match="already registered"):
            register_algorithm(Dup)

    def test_abstract_name_rejected(self):
        class NoName(NeighborhoodAllgatherAlgorithm):
            def _build(self, topology, machine):
                return SetupStats()

            def rank_ops(self, ctx, rank):
                return None

        with pytest.raises(ValueError, match="non-abstract name"):
            register_algorithm(NoName)


class TestLifecycle:
    def test_setup_idempotent(self, small_machine, small_topology):
        alg = get_algorithm("distance_halving")
        s1 = alg.setup(small_topology, small_machine)
        s2 = alg.setup(small_topology, small_machine)
        assert s1 is s2  # cached, not rebuilt

    def test_setup_rebuilds_for_new_topology(self, small_machine):
        alg = get_algorithm("distance_halving")
        t1 = erdos_renyi_topology(small_machine.spec.n_ranks, 0.2, seed=0)
        t2 = erdos_renyi_topology(small_machine.spec.n_ranks, 0.2, seed=1)
        s1 = alg.setup(t1, small_machine)
        s2 = alg.setup(t2, small_machine)
        assert s1 is not s2

    def test_program_before_setup_rejected(self, small_machine):
        alg = get_algorithm("distance_halving")
        with pytest.raises(RuntimeError, match="setup"):
            alg.require_setup()

    def test_topology_too_big_for_machine(self, tiny_machine):
        alg = get_algorithm("naive")
        topo = erdos_renyi_topology(100, 0.1, seed=0)
        with pytest.raises(ValueError, match="machine only"):
            alg.setup(topo, tiny_machine)


class TestReplan:
    #: Non-default constructor arguments for every registered backend.
    ARGUMENTS = {
        "naive": {},
        "common_neighbor": {"k": 8},
        "distance_halving": {"selection": "protocol", "stop_ranks": 1},
        "hierarchical": {"leaders_per_node": 3},
        "bruck": {"locality": "node"},
    }

    def test_replan_keeps_constructor_arguments(self, small_machine, small_topology):
        assert set(self.ARGUMENTS) == set(available_algorithms())
        for name, kwargs in self.ARGUMENTS.items():
            alg = get_algorithm(name, **kwargs)
            alg.setup(small_topology, small_machine)
            fresh = alg.replan()
            assert type(fresh) is type(alg) and fresh is not alg
            assert not fresh.is_setup
            assert {key: getattr(fresh, key) for key in kwargs} == kwargs


class _Scripted(NeighborhoodAllgatherAlgorithm):
    """Rank 0 runs ``ops``; no other rank has a stream."""

    name = "scripted"

    def __init__(self, ops):
        super().__init__()
        self.ops = ops

    def _build(self, topology, machine):
        return SetupStats()

    def rank_ops(self, ctx, rank):
        return iter(self.ops) if rank == 0 else None


class TestGenericProgramValidation:
    """An allgather's program posts straight into the engine, so a bad op
    raises what the engine's communicator primitives raise, with their
    text (a negative charge, the engine's negative-size text)."""

    @pytest.mark.parametrize("ops,comm_call", [
        ([("send", 1, -64, 0, (0,))], lambda engine: engine.send(0, 1, -64, 0, (0,))),
        ([("charge", -8)], lambda engine: engine.send(0, 1, -8, 0, ())),
        ([("recv", 9, 0, 64), ("wait",)], lambda engine: engine.recv(0, 9, 0)),
    ])
    def test_bad_op_raises_communicator_error(self, tiny_machine, ops, comm_call):
        with pytest.raises(ValueError) as expected:
            comm_call(Engine(n_ranks=8, machine=tiny_machine))
        topology = erdos_renyi_topology(8, 0.5, seed=3)
        alg = _Scripted(ops)
        alg.setup(topology, tiny_machine)
        ctx = ExecutionContext(topology, tiny_machine, 64, list(range(8)),
                               [{} for _ in range(8)])
        engine = Engine(n_ranks=8, machine=tiny_machine)
        engine.spawn_all(lambda rank: alg.program(engine, rank, ctx))
        with pytest.raises(ValueError) as raised:
            engine.run()
        assert str(raised.value) == str(expected.value)


class TestCapabilityDeclarations:
    """Registration-time validation of the capability vocabulary."""

    @pytest.fixture
    def scratch(self):
        """Record scratch registrations; pop them from the registry after."""
        from repro.collectives import base as base_mod

        names = []
        yield names
        for name in names:
            base_mod._REGISTRY.pop(name, None)

    @staticmethod
    def _minimal(name):
        class Minimal(NeighborhoodAllgatherAlgorithm):
            def _build(self, topology, machine):
                return SetupStats()

            def rank_ops(self, ctx, rank):
                return None

        Minimal.name = name
        return Minimal

    def test_unknown_capability_rejected(self):
        with pytest.raises(ValueError, match="unknown capabilities"):
            register_algorithm(self._minimal("scratch_typo"),
                               capabilities=("shedule",))

    def test_bench_kwargs_must_construct(self):
        with pytest.raises(TypeError):
            register_algorithm(self._minimal("scratch_bench"),
                               capabilities=("bench",),
                               bench_kwargs=(("no_such_param", 1),))

    def test_bare_registration_is_lookup_only(self, scratch):
        cls = register_algorithm(self._minimal("scratch_bare"))
        scratch.append("scratch_bare")
        info = algorithm_info("scratch_bare")
        assert info.cls is cls
        assert info.capabilities == frozenset()
        assert info.label == "scratch_bare"
        # Lookup-only backends stay out of every capability-gated surface.
        assert all(i.name != "scratch_bare"
                   for i in list_algorithms(requires={"oracle"}))

    def test_list_algorithms_unknown_requirement(self):
        with pytest.raises(ValueError, match="unknown"):
            list_algorithms(requires={"bogus_capability"})

    def test_list_algorithms_registration_order(self):
        names = [i.name for i in list_algorithms()]
        assert names == [
            "naive", "common_neighbor", "distance_halving",
            "hierarchical", "bruck",
        ]

    def test_info_has_and_tuning_values(self):
        cn = algorithm_info("common_neighbor")
        assert cn.has("oracle", "bench") and not cn.has("setup_free")
        assert cn.tuning and cn.tuning_values("k")
        with pytest.raises(KeyError, match="no tuning grid"):
            cn.tuning_values("radius")

    def test_algorithm_info_unknown_lists_available(self):
        with pytest.raises(KeyError, match="available"):
            algorithm_info("telepathy")


class TestRegistryCompleteness:
    """Pins: every capability-enrolled algorithm reaches every consumer
    surface (fuzz oracles, bench sweeps, chaos) through the registry."""

    def test_oracle_set_drives_fuzzer_and_chaos(self):
        from repro.exec import chaos
        from repro.verify import differential

        oracle = tuple(i.name for i in list_algorithms(requires={"oracle"}))
        assert differential.ALGORITHMS == oracle
        assert chaos.ALGORITHMS == oracle
        assert "bruck" in oracle

    def test_bench_set_drives_every_bench_surface(self):
        from repro.bench import resilience, sweep, wallclock

        bench = tuple(i.name for i in list_algorithms(requires={"bench"}))
        assert wallclock.ALGORITHMS == bench
        assert resilience.ALGORITHMS == bench
        assert tuple(name for name, _ in sweep.SMOKE_ALGORITHMS) == bench
        assert "bruck" in bench

    def test_fallback_is_registered_and_setup_free(self):
        from repro.collectives.base import SETUP_FREE_FALLBACK

        info = algorithm_info(SETUP_FREE_FALLBACK)
        assert info.has("setup_free")
