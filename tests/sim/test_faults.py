"""Unit and integration tests for the fault-injection layer."""

import math

import pytest

from repro.cluster import Machine
from repro.collectives.runner import RunOptions, run_allgather, verify_allgather
from repro.sim.engine import (
    DeadlockError,
    Engine,
    RetriesExhaustedError,
    SimTimeoutError,
)
from repro.sim.faults import (
    CRASH_PROFILE_MODES,
    FaultInjector,
    FaultPlan,
    LinkFault,
    MessageLoss,
    RetryPolicy,
    Straggler,
    get_profile,
    resilience_profiles,
)
from repro.cluster.spec import LinkClass
from repro.topology import cartesian_topology, erdos_renyi_topology


def small_machine():
    return Machine.single_switch(nodes=2, sockets_per_node=2, ranks_per_socket=2)


def small_topology(n=8, density=0.5, seed=7):
    return erdos_renyi_topology(n, density, seed=seed)


class TestSpecValidation:
    def test_link_fault_rejects_bad_factors(self):
        with pytest.raises(ValueError):
            LinkFault(alpha_factor=0.0)
        with pytest.raises(ValueError):
            LinkFault(beta_factor=-1.0)

    def test_window_end_before_start_rejected(self):
        with pytest.raises(ValueError):
            LinkFault(start=2.0, end=1.0)
        with pytest.raises(ValueError):
            MessageLoss(probability=0.1, start=5.0, end=0.0)

    def test_loss_probability_range(self):
        with pytest.raises(ValueError):
            MessageLoss(probability=1.5)
        with pytest.raises(ValueError):
            MessageLoss(probability=-0.1)

    def test_retry_policy_validation(self):
        with pytest.raises(ValueError):
            RetryPolicy(timeout=0.0)
        with pytest.raises(ValueError):
            RetryPolicy(backoff=0.5)
        with pytest.raises(ValueError):
            RetryPolicy(max_retries=-1)

    def test_straggler_validation(self):
        with pytest.raises(ValueError):
            Straggler(rank=-1)
        with pytest.raises(ValueError):
            Straggler(rank=0, compute_factor=0.0)

    def test_duplicate_straggler_rank_rejected(self):
        with pytest.raises(ValueError):
            FaultPlan(stragglers=(Straggler(rank=1), Straggler(rank=1)))

    def test_is_noop(self):
        assert FaultPlan().is_noop()
        assert FaultPlan(
            link_faults=(LinkFault(),),
            stragglers=(Straggler(rank=0),),
            losses=(MessageLoss(probability=0.0),),
        ).is_noop()
        assert not FaultPlan(losses=(MessageLoss(probability=0.1),)).is_noop()
        assert not FaultPlan(link_faults=(LinkFault(alpha_factor=2.0),)).is_noop()


class TestSetupSurvivability:
    def test_no_loss_always_survivable(self):
        assert FaultPlan().setup_survivable(10**9)

    def test_zero_messages_always_survivable(self):
        plan = FaultPlan(losses=(MessageLoss(probability=1.0),))
        assert plan.setup_survivable(0)

    def test_heavy_loss_small_budget_not_survivable(self):
        plan = FaultPlan(
            losses=(MessageLoss(probability=0.9),),
            retry=RetryPolicy(max_retries=1),
        )
        # expected permanent failures = 100 * 0.81 >> 1
        assert not plan.setup_survivable(100)

    def test_light_loss_big_budget_survivable(self):
        plan = FaultPlan(
            losses=(MessageLoss(probability=0.05),),
            retry=RetryPolicy(max_retries=6),
        )
        assert plan.setup_survivable(10_000)

    def test_windows_do_not_shield_setup(self):
        # Setup runs before t=0: a loss spec with an empty runtime window
        # still counts at its peak probability.
        plan = FaultPlan(
            losses=(MessageLoss(probability=0.9, start=0.0, end=0.0),),
            retry=RetryPolicy(max_retries=1),
        )
        assert not plan.setup_survivable(100)


class TestInjector:
    def test_perturb_applies_only_inside_window(self):
        plan = FaultPlan(
            link_faults=(
                LinkFault(link_class=LinkClass.INTER_NODE, alpha_factor=3.0,
                          beta_factor=0.5, start=1.0, end=2.0),
            )
        )
        inj = FaultInjector(plan)
        base = (1e-6, 1e-7, 1e-9, 2e-9)
        # Outside the window / wrong class: bit-identical passthrough.
        assert inj.perturb(LinkClass.INTER_NODE, 0.5, *base) == base
        assert inj.perturb(LinkClass.INTRA_SOCKET, 1.5, *base) == base
        # Inside: alpha and hop scale up, inverse betas scale up (slower).
        a, h, ib, lib = inj.perturb(LinkClass.INTER_NODE, 1.5, *base)
        assert a == base[0] * 3.0 and h == base[1] * 3.0
        assert ib == base[2] / 0.5 and lib == base[3] / 0.5

    def test_zero_probability_never_draws(self):
        inj = FaultInjector(FaultPlan(losses=(MessageLoss(probability=0.0),)))
        state = inj.rng.bit_generator.state
        assert not inj.should_drop(LinkClass.INTER_NODE, 0.0)
        assert inj.rng.bit_generator.state == state  # RNG untouched

    def test_certain_loss_always_drops(self):
        inj = FaultInjector(FaultPlan(losses=(MessageLoss(probability=1.0),)))
        assert all(inj.should_drop(LinkClass.INTER_NODE, 0.0) for _ in range(16))

    def test_straggler_lookups(self):
        plan = FaultPlan(stragglers=(Straggler(rank=2, compute_factor=4.0,
                                               startup_delay=1e-3),))
        inj = FaultInjector(plan)
        assert inj.compute_factor(2) == 4.0
        assert inj.compute_factor(0) == 1.0
        assert inj.startup_delay(2) == 1e-3
        assert inj.startup_delay(1) == 0.0
        assert inj.has_stragglers


class TestRetryAndLoss:
    def test_windowed_certain_loss_forces_exactly_one_retry(self):
        """p=1 inside an early window, 0 after: the first attempt always
        drops, the retransmission (pushed past the window by the ack
        timeout) always lands — RNG-independent retry accounting."""
        machine = small_machine()
        topology = small_topology()
        clean = run_allgather("naive", topology, machine, 256)
        window_end = clean.simulated_time * 0.1
        plan = FaultPlan(
            losses=(MessageLoss(probability=1.0, end=window_end),),
            retry=RetryPolicy(timeout=window_end * 2, backoff=2.0, max_retries=3),
        )
        run = run_allgather("naive", topology, machine, 256,
                            options=RunOptions(fault_plan=plan))
        verify_allgather(topology, run)
        stats = run.fault_stats
        assert stats["messages_lost"] == 0
        assert stats["drops"] == stats["retransmissions"]
        assert stats["drops"] > 0
        # Retransmission + backoff must cost simulated time.
        assert run.simulated_time > clean.simulated_time

    def test_exhausted_retries_raise_structured_error(self):
        # Used to surface much later as an anonymous DeadlockError once the
        # starved receiver drained the heap; now the failure is reported at
        # its source with the transfer named.
        machine = small_machine()
        topology = small_topology()
        plan = FaultPlan(
            losses=(MessageLoss(probability=1.0),),
            retry=RetryPolicy(timeout=1e-5, max_retries=2),
        )
        with pytest.raises(RetriesExhaustedError, match="transmission attempts"):
            run_allgather("naive", topology, machine, 256,
                          options=RunOptions(fault_plan=plan))

    def test_lost_send_request_flags(self):
        machine = small_machine()
        engine = Engine(
            n_ranks=4,
            machine=machine,
            faults=FaultPlan(
                losses=(MessageLoss(probability=1.0),),
                retry=RetryPolicy(timeout=1e-5, max_retries=1),
            ),
        )
        with pytest.raises(RetriesExhaustedError) as excinfo:
            engine.post_send(0, 1, 64, tag=0, payload=None)
        err = excinfo.value
        assert err.rank == 0
        assert err.peer == 1
        assert err.attempts == 2  # first try + one retransmission
        assert err.last_timeout > 0
        # The loss is still fully accounted before the raise.
        assert engine.messages_lost == 1
        assert engine.faults.messages_lost == 1

    def test_send_raises_with_counters_set(self):
        engine = Engine(
            n_ranks=4,
            machine=small_machine(),
            faults=FaultPlan(
                losses=(MessageLoss(probability=1.0),),
                retry=RetryPolicy(timeout=1e-5, max_retries=1),
            ),
        )
        with pytest.raises(RetriesExhaustedError) as excinfo:
            engine.send(0, 1, 64, 0, None)
        assert excinfo.value.attempts == 2
        # Counted before the raise: a crashed round's callers read them.
        assert engine.messages_sent == 1
        assert engine.bytes_sent == 64
        assert engine.messages_lost == 1
        assert engine.faults.messages_lost == 1

    def test_retransmission_cost_charged_to_resources(self):
        machine = small_machine()
        plain = Engine(n_ranks=4, machine=machine)
        t_plain = plain.post_send(0, 3, 4096, tag=0, payload=None).completion_time
        lossy = Engine(
            n_ranks=4,
            machine=machine,
            faults=FaultPlan(
                losses=(MessageLoss(probability=1.0, end=1e-7),),
                retry=RetryPolicy(timeout=1e-6, max_retries=3),
            ),
        )
        req = lossy.post_send(0, 3, 4096, tag=0, payload=None)
        assert req.attempts == 2
        assert not req.lost
        assert req.completion_time > t_plain  # retry + backoff in sim time


class TestStragglers:
    def test_startup_delay_shifts_finish_time(self):
        machine = small_machine()
        delay = 5e-4
        plan = FaultPlan(stragglers=(Straggler(rank=1, startup_delay=delay),))
        engine = Engine(n_ranks=4, machine=machine, faults=plan)

        def program(comm):
            yield comm.compute(1e-6)

        engine.spawn_all(lambda rank: program)
        engine.run()
        assert engine.finish_time(1) >= delay
        assert engine.finish_time(0) < delay

    def test_compute_factor_scales_compute(self):
        machine = small_machine()
        plan = FaultPlan(stragglers=(Straggler(rank=2, compute_factor=10.0),))
        engine = Engine(n_ranks=4, machine=machine, faults=plan)

        def program(comm):
            yield comm.compute(1e-5)

        engine.spawn_all(lambda rank: program)
        engine.run()
        assert engine.finish_time(2) == pytest.approx(10 * engine.finish_time(0))

    @pytest.mark.xfail(strict=True, reason=(
        "the generic rank program charges memcpys and call overheads "
        "inline and yields no compute, so compute_factor scales nothing"
    ))
    def test_compute_factor_slows_an_allgather(self):
        # A ring, so the straggler's own posts are on the critical path.
        topology = cartesian_topology(8, d=1)
        machine = small_machine()

        def run(factor):
            plan = FaultPlan(stragglers=(Straggler(rank=2, compute_factor=factor),))
            return run_allgather("naive", topology, machine, 4096,
                                 options=RunOptions(fault_plan=plan))

        assert run(8.0).simulated_time > run(1.0).simulated_time


class TestWatchdog:
    def _spin_program(self, comm):
        while True:
            yield comm.compute(1e-6)

    def test_max_events_raises_sim_timeout(self):
        engine = Engine(n_ranks=2, machine=small_machine(), max_events=50)
        engine.spawn_all(lambda rank: self._spin_program)
        with pytest.raises(SimTimeoutError, match="event budget exceeded"):
            engine.run()
        assert engine.events_processed == 50

    def test_max_sim_time_raises_sim_timeout(self):
        engine = Engine(n_ranks=2, machine=small_machine(), max_sim_time=1e-4)
        engine.spawn_all(lambda rank: self._spin_program)
        with pytest.raises(SimTimeoutError, match="simulated-time budget"):
            engine.run()

    def test_timeout_carries_blocked_diagnostics(self):
        engine = Engine(n_ranks=2, machine=small_machine(), max_events=5)

        def waiter(comm):
            yield comm.wait(comm.irecv(src=(comm.rank + 1) % 2))

        def spinner(comm):
            while True:
                yield comm.compute(1e-6)

        engine.spawn(0, waiter)
        engine.spawn(1, spinner)
        with pytest.raises(SimTimeoutError, match=r"rank 0 \(waitall\(1 pending\)\)"):
            engine.run()

    def test_budget_validation(self):
        with pytest.raises(ValueError):
            Engine(n_ranks=2, machine=small_machine(), max_sim_time=0.0)
        with pytest.raises(ValueError):
            Engine(n_ranks=2, machine=small_machine(), max_events=0)

    def test_generous_budgets_do_not_perturb_results(self):
        machine = small_machine()
        topology = small_topology()
        clean = run_allgather("distance_halving", topology, machine, 512)
        guarded = run_allgather(
            "distance_halving", topology, machine, 512,
            options=RunOptions(max_sim_time=10.0, max_events=10**9),
        )
        assert guarded.simulated_time == clean.simulated_time


class TestFallback:
    def test_dh_falls_back_to_naive_when_setup_infeasible(self):
        machine = small_machine()
        topology = small_topology()
        plan = FaultPlan(
            losses=(MessageLoss(probability=0.9, start=0.0, end=0.0),),
            retry=RetryPolicy(max_retries=1),
        )
        run = run_allgather(
            "distance_halving", topology, machine, 256,
            options=RunOptions(fault_plan=plan, fallback="naive"),
        )
        verify_allgather(topology, run)
        assert run.fallback_used
        assert run.algorithm == "naive"
        assert run.requested_algorithm == "distance_halving"
        naive = run_allgather("naive", topology, machine, 256)
        assert run.simulated_time == naive.simulated_time

    def test_no_fallback_without_request(self):
        machine = small_machine()
        topology = small_topology()
        plan = FaultPlan(
            losses=(MessageLoss(probability=0.9, start=0.0, end=0.0),),
            retry=RetryPolicy(max_retries=1),
        )
        run = run_allgather("distance_halving", topology, machine, 256,
                            options=RunOptions(fault_plan=plan))
        assert not run.fallback_used
        assert run.algorithm == "distance_halving"

    def test_naive_never_falls_back(self):
        machine = small_machine()
        topology = small_topology()
        plan = FaultPlan(
            losses=(MessageLoss(probability=0.9, start=0.0, end=0.0),),
            retry=RetryPolicy(max_retries=1),
        )
        run = run_allgather("naive", topology, machine, 256,
                            options=RunOptions(fault_plan=plan, fallback="naive"))
        assert not run.fallback_used


class TestProfiles:
    def test_all_profiles_present_and_typed(self):
        profiles = resilience_profiles(64)
        assert set(profiles) == {
            "jitter", "straggler", "lossy", "setup_loss",
            "crash", "crash_recover",
        }
        for plan in profiles.values():
            assert isinstance(plan, FaultPlan)
            assert not plan.is_noop()

    def test_crash_profiles_have_paired_recovery_modes(self):
        profiles = resilience_profiles(16)
        assert set(CRASH_PROFILE_MODES) == {"crash", "crash_recover"}
        assert CRASH_PROFILE_MODES["crash"] == "degrade"
        assert CRASH_PROFILE_MODES["crash_recover"] == "shrink"
        for name in CRASH_PROFILE_MODES:
            plan = profiles[name]
            assert plan.crashes, name
            assert plan.detector is not None, name
            assert all(0 <= c.rank < 16 for c in plan.crashes)

    def test_straggler_ranks_within_communicator(self):
        for n in (3, 8, 64, 257):
            for s in resilience_profiles(n)["straggler"].stragglers:
                assert 0 <= s.rank < n

    def test_get_profile_clean_is_none(self):
        assert get_profile("clean", 16) is None

    def test_get_profile_unknown_raises(self):
        with pytest.raises(KeyError, match="unknown fault profile"):
            get_profile("meteor", 16)

    def test_profiles_complete_and_verify(self):
        machine = small_machine()
        topology = small_topology()
        for name, plan in resilience_profiles(topology.n, seed=5).items():
            # Crash profiles need their paired ULFM recovery mode; survivors
            # are verified against the relaxed post-condition.
            options = RunOptions(
                fault_plan=plan, fallback="naive",
                on_failure=CRASH_PROFILE_MODES.get(name, "abort"),
            )
            run = run_allgather("distance_halving", topology, machine, 512,
                                options=options)
            verify_allgather(topology, run, allow_missing=run.missing_ranks)
            assert math.isfinite(run.simulated_time), name
