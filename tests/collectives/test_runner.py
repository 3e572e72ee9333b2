"""Unit tests for the execution harness."""

import pytest

from repro.collectives import (
    RunOptions,
    get_algorithm,
    run_allgather,
    run_allgatherv,
    verify_allgather,
)
from repro.collectives.base import ExecutionContext
from repro.exec.spec import MachineSpec, TopologySpec
from repro.sim.engine import Engine
from repro.sim.faults import resilience_profiles
from repro.topology import DistGraphTopology, erdos_renyi_topology


class TestRunAllgather:
    def test_returns_complete_record(self, small_machine, small_topology):
        run = run_allgather("naive", small_topology, small_machine, "1KB")
        assert run.algorithm == "naive"
        assert run.msg_size == 1024
        assert run.simulated_time > 0
        assert run.messages_sent == small_topology.n_edges
        assert run.bytes_sent == small_topology.n_edges * 1024
        assert len(run.finish_times) == small_topology.n

    def test_size_strings_parsed(self, small_machine, small_topology):
        run = run_allgather("naive", small_topology, small_machine, "64KB")
        assert run.msg_size == 65536

    def test_instance_reuse_amortizes_setup(self, small_machine, small_topology):
        alg = get_algorithm("distance_halving")
        r1 = run_allgather(alg, small_topology, small_machine, 64)
        r2 = run_allgather(alg, small_topology, small_machine, 4096)
        assert r1.setup_stats is r2.setup_stats

    def test_kwargs_with_instance_rejected(self, small_machine, small_topology):
        alg = get_algorithm("naive")
        with pytest.raises(ValueError, match="unexpected keyword"):
            run_allgather(alg, small_topology, small_machine, 64, k=4)

    def test_trace_collection(self, small_machine, small_topology):
        run = run_allgather("naive", small_topology, small_machine, 512, options=RunOptions(trace=True))
        assert run.trace is not None
        assert run.trace.total_messages == run.messages_sent

    def test_utilization_with_trace(self, small_machine, small_topology):
        run = run_allgather("naive", small_topology, small_machine, 512, options=RunOptions(trace=True))
        assert run.utilization is not None
        ports = run.utilization["send_ports"]
        assert ports and all(0.0 <= u <= 1.0 for u in ports.values())

    @pytest.mark.parametrize("algorithm", ["naive", "distance_halving", "bruck"])
    def test_recovery_free_utilization_is_the_engine_s(self, small_machine,
                                                        small_topology, algorithm):
        """Without a recovery the run's utilization is its one engine's
        ``Fabric.utilization`` over the makespan, value for value."""
        alg = get_algorithm(algorithm)
        run = run_allgather(alg, small_topology, small_machine, 512,
                            options=RunOptions(trace=True))
        ctx = ExecutionContext(small_topology, small_machine, 512,
                               list(range(small_topology.n)),
                               [{} for _ in range(small_topology.n)])
        engine = Engine(n_ranks=small_topology.n, machine=small_machine)
        engine.spawn_all(lambda rank: alg.program(engine, rank, ctx))
        makespan = engine.run()
        assert makespan == run.simulated_time
        assert run.utilization == engine.fabric.utilization(makespan)

    def test_utilization_after_a_recovery_covers_the_whole_run(self):
        """A recovered run sums every round's busy time, with ports keyed by
        original rank ids, over the whole run's simulated time."""
        topology = TopologySpec("random", 48, density=0.1, seed=12).build()
        machine = MachineSpec.for_ranks(48, 4).build()
        plan = resilience_profiles(48, seed=7)["crash"]
        run = run_allgather("distance_halving", topology, machine, 4096,
                            options=RunOptions(fault_plan=plan, on_failure="degrade",
                                               trace=True))
        assert run.recovery["rounds"] == 1 and run.missing_ranks == (12, 36)
        util = run.utilization
        # The recovery round ran on 46 survivors renumbered 0..45; original
        # ids run to 47, and crashed ranks keep what they did before dying.
        assert set(util["send_ports"]) == set(range(48)) - {12}
        assert set(util["recv_ports"]) == set(range(48))
        assert all(0.0 <= u <= 1.0 for family in util.values() for u in family.values())
        # Every message of every round occupied its sender's port for
        # alpha + nbytes / beta (the crash plan perturbs no message).
        port_seconds = sum(
            machine.params.cost(r.link_class).alpha
            + r.nbytes / machine.params.cost(r.link_class).beta
            for r in run.trace.records
        )
        assert len(run.trace.records) == run.messages_sent
        busy = sum(util["send_ports"].values()) * run.simulated_time
        assert busy == pytest.approx(port_seconds, rel=1e-9)

    def test_no_utilization_without_trace(self, small_machine, small_topology):
        run = run_allgather("naive", small_topology, small_machine, 512)
        assert run.utilization is None

    def test_load_imbalance_metric(self, small_machine, small_topology):
        from repro.collectives.runner import load_imbalance

        run = run_allgather("naive", small_topology, small_machine, 512)
        li = load_imbalance(run)
        assert li >= 1.0
        empty = run_allgather(
            "naive",
            type(small_topology)(small_topology.n, {}),
            small_machine,
            512,
        )
        assert load_imbalance(empty) == 1.0

    def test_custom_payloads(self, small_machine):
        topo = DistGraphTopology(small_machine.spec.n_ranks, {0: [1]})
        payloads = [f"data-{r}" for r in range(topo.n)]
        run = run_allgather("naive", topo, small_machine, 64, payloads=payloads)
        assert run.results[1][0] == "data-0"

    def test_wrong_payload_count_rejected(self, small_machine, small_topology):
        with pytest.raises(ValueError, match="payloads has"):
            run_allgather("naive", small_topology, small_machine, 64, payloads=[1, 2])

    def test_simulated_time_is_max_finish(self, small_machine, small_topology):
        run = run_allgather("naive", small_topology, small_machine, 256)
        assert run.simulated_time == pytest.approx(max(run.finish_times.values()))


class TestVerifyAllgather:
    def test_accepts_correct_run(self, small_machine, small_topology):
        run = run_allgather("naive", small_topology, small_machine, 64)
        verify_allgather(small_topology, run)  # should not raise

    def test_detects_missing_block(self, small_machine):
        topo = DistGraphTopology(small_machine.spec.n_ranks, {0: [1], 2: [1]})
        run = run_allgather("naive", topo, small_machine, 64)
        del run.results[1][0]
        with pytest.raises(AssertionError, match="missing blocks"):
            verify_allgather(topo, run)

    def test_detects_extra_block(self, small_machine):
        topo = DistGraphTopology(small_machine.spec.n_ranks, {0: [1]})
        run = run_allgather("naive", topo, small_machine, 64)
        run.results[1][5] = 5
        with pytest.raises(AssertionError, match="unexpected blocks"):
            verify_allgather(topo, run)

    def test_detects_corrupt_payload(self, small_machine):
        topo = DistGraphTopology(small_machine.spec.n_ranks, {0: [1]})
        run = run_allgather("naive", topo, small_machine, 64)
        run.results[1][0] = 99
        with pytest.raises(AssertionError, match="wrong payload"):
            verify_allgather(topo, run)

    def test_accepts_custom_payload_run(self, small_machine):
        """Regression: verification used to assert ``payload == src`` even
        when the run carried custom payloads, rejecting correct runs."""
        topo = DistGraphTopology(small_machine.spec.n_ranks, {0: [1], 2: [1]})
        payloads = [f"data-{r}" for r in range(topo.n)]
        run = run_allgather("naive", topo, small_machine, 64, payloads=payloads)
        verify_allgather(topo, run, expected_payloads=payloads)  # should not raise

    def test_custom_payload_corruption_still_detected(self, small_machine):
        topo = DistGraphTopology(small_machine.spec.n_ranks, {0: [1]})
        payloads = [f"data-{r}" for r in range(topo.n)]
        run = run_allgather("naive", topo, small_machine, 64, payloads=payloads)
        run.results[1][0] = "data-corrupt"
        with pytest.raises(AssertionError, match="expected 'data-0'"):
            verify_allgather(topo, run, expected_payloads=payloads)

    def test_wrong_expected_payload_count_rejected(self, small_machine, small_topology):
        run = run_allgather("naive", small_topology, small_machine, 64)
        with pytest.raises(ValueError, match="expected_payloads has"):
            verify_allgather(small_topology, run, expected_payloads=[1, 2])


class TestDegenerateTopologies:
    @pytest.mark.parametrize("name", ["naive", "common_neighbor", "distance_halving", "bruck"])
    def test_empty_topology(self, small_machine, name):
        topo = DistGraphTopology(small_machine.spec.n_ranks, {})
        run = run_allgather(name, topo, small_machine, 64)
        verify_allgather(topo, run)
        assert run.simulated_time >= 0

    @pytest.mark.parametrize("name", ["naive", "common_neighbor", "distance_halving", "bruck"])
    def test_single_edge(self, small_machine, name):
        topo = DistGraphTopology(small_machine.spec.n_ranks, {0: [small_machine.spec.n_ranks - 1]})
        run = run_allgather(name, topo, small_machine, 64)
        verify_allgather(topo, run)

    @pytest.mark.parametrize("name", ["naive", "common_neighbor", "distance_halving", "bruck"])
    def test_self_loops(self, small_machine, name):
        n = small_machine.spec.n_ranks
        topo = DistGraphTopology(n, {r: [r, (r + 1) % n] for r in range(n)})
        run = run_allgather(name, topo, small_machine, 64)
        verify_allgather(topo, run)

    @pytest.mark.parametrize("name", ["naive", "common_neighbor", "distance_halving", "bruck"])
    def test_complete_graph(self, small_machine, name):
        topo = erdos_renyi_topology(small_machine.spec.n_ranks, 1.0, seed=0)
        run = run_allgather(name, topo, small_machine, 64)
        verify_allgather(topo, run)

    @pytest.mark.parametrize("name", ["naive", "common_neighbor", "distance_halving", "bruck"])
    def test_zero_byte_messages(self, small_machine, small_topology, name):
        run = run_allgather(name, small_topology, small_machine, 0)
        verify_allgather(small_topology, run)


class TestUnexpectedKeywords:
    """The pre-RunOptions keyword surface is gone: clean rejection only."""

    def test_option_keyword_rejected(self, small_machine, small_topology):
        with pytest.raises(ValueError, match="unexpected keyword.*trace"):
            run_allgather("naive", small_topology, small_machine, 64, trace=True)

    def test_algorithm_kwarg_rejected(self, small_machine, small_topology):
        with pytest.raises(ValueError, match="unexpected keyword.*k"):
            run_allgather(
                "common_neighbor", small_topology, small_machine, 64, k=2
            )

    def test_allgatherv_passes_stray_keywords_on(self, small_machine, small_topology):
        # run_allgatherv forwards extra keywords to run_allgather, which
        # rejects them with its own error.
        sizes = [64] * small_topology.n
        with pytest.raises(ValueError, match="unexpected keyword.*trace"):
            run_allgatherv("naive", small_topology, small_machine, sizes,
                           trace=True)

    def test_error_names_every_stray_keyword(self, small_machine, small_topology):
        with pytest.raises(ValueError, match="noise_seed.*trace"):
            run_allgather(
                "naive", small_topology, small_machine, 64,
                options=RunOptions(), trace=True, noise_seed=3,
            )

    def test_error_points_at_modern_surface(self, small_machine, small_topology):
        with pytest.raises(ValueError, match="options=RunOptions"):
            run_allgather("naive", small_topology, small_machine, 64, trace=True)

    def test_modern_call_is_warning_free(self, small_machine, small_topology):
        import warnings

        with warnings.catch_warnings():
            warnings.simplefilter("error")
            run_allgather(
                "naive", small_topology, small_machine, 64,
                options=RunOptions(noise_seed=2),
            )

    def test_unknown_fallback_rejected_at_options_construction(self):
        with pytest.raises(ValueError, match="fallback.*no_such_algorithm"):
            RunOptions(fallback="no_such_algorithm")
