"""Multi-stage executor edge cases and the compiled-plan cache.

The executor (:func:`repro.sim.fastpath._execute_multi`) is an exact replay
of the engine over statically-matched schedules; the engine itself, running
each schedule through a timing-only program
(:func:`tests.sim.engine_replay.run_on_engine`), is its reference.  These
tests target the places the replay could plausibly diverge:

* resource claims that bind *across* stage boundaries (a straggler's send
  delaying a later-stage message on the same port);
* degenerate shapes — empty stages (back-to-back waitalls), single-rank
  schedules, ranks with no program (``None`` ops);
* watchdog budgets tripping on the same event as the engine;
* receives no send matches: the run deadlocks with the engine's report;
* the keyed plan cache replacing the old single-entry memo (alternating
  two machines must not evict each other's plans — the ``fastpath`` memo
  regression), one size-free plan per pattern across message sizes, plus
  LRU bounds and stats.
"""

import dataclasses

import pytest

from repro.collectives.base import ExecutionContext, get_algorithm
from repro.collectives.runner import RunOptions, run_allgather
from repro.exec.spec import MachineSpec, TopologySpec
from repro.sim.engine import DeadlockError, SimTimeoutError
from repro.sim.fastpath import FastRunOutcome, execute_schedule, multi_plan_for
from repro.sim.plancache import (
    PLAN_CACHE,
    PlanCache,
    machine_digest,
    plan_cache_stats,
    reset_plan_cache,
)
from repro.sim.schedule import (
    Schedule,
    spawn_wake_order,
    static_matching,
    structural_digest,
)
from tests.sim.engine_replay import assert_deadlocks_like_engine, assert_matches_engine


def _machine(nodes=2, sockets=2, rps=4):
    return MachineSpec(nodes=nodes, sockets_per_node=sockets,
                       ranks_per_socket=rps).build()


#: Block size the memoized (block-count) schedules below are priced with.
MSG = 4096


def _schedule_for(name, kwargs, n, nodes, density, msg=MSG, seed=3):
    """``schedule_for``'s block-count schedule — price it with ``unit=msg``."""
    machine = _machine(nodes=nodes, rps=max(1, n // (nodes * 2)))
    topology = TopologySpec("random", n, density=density, seed=seed).build()
    algorithm = get_algorithm(name, **kwargs)
    algorithm.setup(topology, machine)
    ctx = ExecutionContext(
        topology=topology, machine=machine, msg_size=msg,
        payloads=list(range(n)), results=[{} for _ in range(n)],
    )
    return algorithm.schedule_for(ctx), machine


def _assert_identical(schedule, machine, unit=1, **budgets):
    """The executor must match the engine field-for-field."""
    status, fields = assert_matches_engine(schedule, machine, unit, **budgets)
    assert status == "ok", fields
    return FastRunOutcome(*fields)


class TestExecutorEdgeCases:
    def test_straggler_claim_binds_across_stages(self):
        # Rank 0 straggles in stage 0 (large memcpy) and only then sends to
        # rank 2; rank 1's stage-1 message to rank 2 contends for rank 2's
        # receive port with that straggling stage-0 message.  The timing is
        # only right if stage-0 claims carry into stage 1.
        machine = _machine(nodes=1, sockets=1, rps=4)
        big, small = 1 << 20, 64
        ops = [
            # rank 0: slow stage 0, send lands late
            [("charge", big), ("send", 2, small, 0), ("wait",)],
            # rank 1: fast stage 0 (pure exchange with rank 2), then a
            # stage-1 send into the port rank 0's message is still claiming
            [("send", 2, small, 1), ("recv", 2, 2), ("wait",),
             ("send", 2, small, 3), ("wait",)],
            # rank 2: stage 0 exchange with 1, stage 1 receives both
            [("send", 1, small, 2), ("recv", 1, 1), ("wait",),
             ("recv", 0, 0), ("recv", 1, 3), ("wait",)],
            None,
        ]
        schedule = Schedule(n_ranks=4, ops=ops, deliveries=[[], [], [], []])
        out = _assert_identical(schedule, machine)
        assert out.messages_sent == 4

    def test_empty_stages_between_waits(self):
        # Back-to-back waitalls: a waitall with nothing pending is still an
        # engine event (wake + seq), so event counts must line up too.
        machine = _machine(nodes=1, sockets=1, rps=2)
        ops = [
            [("wait",), ("wait",), ("send", 1, 64, 0), ("wait",), ("wait",)],
            [("recv", 0, 0), ("wait",), ("wait",)],
        ]
        schedule = Schedule(n_ranks=2, ops=ops, deliveries=[[], []])
        _assert_identical(schedule, machine)

    def test_single_rank_schedule(self):
        machine = _machine(nodes=1, sockets=1, rps=1)
        ops = [[("charge", 512), ("send", 0, 128, 0), ("recv", 0, 0),
                ("wait",), ("charge", 64), ("wait",)]]
        schedule = Schedule(n_ranks=1, ops=ops, deliveries=[[0]])
        out = _assert_identical(schedule, machine)
        assert out.finish_times[0] == out.simulated_time

    def test_none_rank_has_no_events(self):
        machine = _machine(nodes=1, sockets=1, rps=4)
        ops = [
            [("send", 2, 64, 0), ("wait",)],
            None,
            [("recv", 0, 0), ("wait",)],
        ]
        schedule = Schedule(n_ranks=3, ops=ops, deliveries=[[], [], [0]])
        assert spawn_wake_order(schedule) == (0, 2)
        out = _assert_identical(schedule, machine)
        assert out.finish_times[1] == 0.0

    def test_unmatched_send_is_parked_forever(self):
        # A send no receive ever matches: the engine parks it in the
        # unexpected table with no timing effect.  static_matching gives it
        # slot -1 and the executors still agree.
        machine = _machine(nodes=1, sockets=1, rps=2)
        ops = [
            [("send", 1, 64, 0), ("send", 1, 64, 99), ("wait",)],
            [("recv", 0, 0), ("wait",)],
        ]
        schedule = Schedule(n_ranks=2, ops=ops, deliveries=[[], [0]])
        slots, n_slots, fully_matched = static_matching(schedule)
        assert fully_matched and slots == [0, -1] and n_slots == 1
        _assert_identical(schedule, machine)

    def test_negative_unit_is_rejected(self):
        machine = _machine(nodes=1, sockets=1, rps=2)
        schedule = Schedule(n_ranks=2, ops=[[("send", 1, 1, 0), ("wait",)],
                                            [("recv", 0, 0), ("wait",)]],
                            deliveries=[[], [0]])
        with pytest.raises(ValueError, match="unit"):
            execute_schedule(schedule, machine, unit=-8)

    def test_unmatched_recv_deadlocks_like_engine(self):
        # A receive with no sender keeps its slot and its owner blocks: the
        # executor reports the engine's deadlock after the same events.
        machine = _machine(nodes=1, sockets=1, rps=2)
        ops = [
            [("send", 1, 64, 0), ("wait",)],
            [("recv", 0, 0), ("recv", 0, 7), ("wait",)],
        ]
        schedule = Schedule(n_ranks=2, ops=ops, deliveries=[[], [0]])
        assert static_matching(schedule)[2] is False
        blocked = r"blocked processes: rank 1 \(waitall\(1 pending\)\)$"
        events = assert_deadlocks_like_engine(schedule, machine)
        assert events == 3  # two spawns and rank 0's wake
        with pytest.raises(DeadlockError, match=blocked):
            execute_schedule(schedule, machine)

    @pytest.mark.parametrize("name,kwargs", [
        ("common_neighbor", {"k": 4}), ("distance_halving", {}), ("bruck", {}),
    ])
    def test_multistage_algorithms_match_interpreter(self, name, kwargs):
        # The engine is the reference (the test's name predates that).
        schedule, machine = _schedule_for(name, kwargs, 48, 3, 0.3)
        _assert_identical(schedule, machine, unit=MSG)


class TestWatchdogBoundaries:
    """Budget trips on multi-stage schedules: same event, same diagnostics
    as the engine (the multi executor now handles budgeted runs)."""

    def _trip(self, sim_mode, **budget):
        machine = _machine(nodes=2, rps=4)
        topology = TopologySpec("random", 16, density=0.4, seed=2).build()
        algorithm = get_algorithm("common_neighbor", k=4)
        algorithm.setup(topology, machine)
        try:
            run_allgather(algorithm, topology, machine, 256,
                          options=RunOptions(sim_mode=sim_mode, **budget))
        except SimTimeoutError as exc:
            return exc
        return None

    @pytest.mark.parametrize("max_events", [1, 7, 33])
    def test_event_budget_parity_multistage(self, max_events):
        des = self._trip("des", max_events=max_events)
        auto = self._trip("auto", max_events=max_events)
        assert des is not None and auto is not None
        assert str(des) == str(auto)
        assert des.events_processed == auto.events_processed == max_events

    @pytest.mark.parametrize("max_sim_time", [1e-7, 4e-6])
    def test_time_budget_parity_multistage(self, max_sim_time):
        des = self._trip("des", max_sim_time=max_sim_time)
        auto = self._trip("auto", max_sim_time=max_sim_time)
        assert des is not None and auto is not None
        assert str(des) == str(auto)
        assert des.events_processed == auto.events_processed

    def test_generous_budget_takes_multi_executor(self):
        machine = _machine(nodes=2, rps=4)
        topology = TopologySpec("random", 16, density=0.4, seed=2).build()
        algorithm = get_algorithm("common_neighbor", k=4)
        algorithm.setup(topology, machine)
        plain = run_allgather(algorithm, topology, machine, 256,
                              options=RunOptions(sim_mode="auto"))
        budgeted = run_allgather(
            algorithm, topology, machine, 256,
            options=RunOptions(sim_mode="auto", max_events=10**9),
        )
        assert budgeted.simulated_time == plain.simulated_time
        assert budgeted.sim_path == "fastpath"


class TestPlanCacheKeying:
    """The keyed plan cache must hold plans for several machines at once —
    the regression the old single-entry ``_fp``/``_fp_batch`` memo had."""

    def test_two_machines_alternate_without_eviction(self):
        schedule, machine_a = _schedule_for("naive", {}, 16, 2, 0.4)
        machine_b = _machine(nodes=4, rps=2)
        reset_plan_cache()
        try:
            ref_a = multi_plan_for(schedule, machine_a)
            ref_b = multi_plan_for(schedule, machine_b)
            misses_after_first = PLAN_CACHE.misses
            for _ in range(3):
                assert multi_plan_for(schedule, machine_a) is ref_a
                assert multi_plan_for(schedule, machine_b) is ref_b
            assert PLAN_CACHE.misses == misses_after_first
            assert PLAN_CACHE.hits >= 6
        finally:
            reset_plan_cache()

    def test_two_machines_alternate_multi_plans(self):
        schedule, machine_a = _schedule_for("common_neighbor", {"k": 4},
                                            16, 2, 0.4)
        machine_b = _machine(nodes=4, rps=2)
        reset_plan_cache()
        try:
            plan_a = multi_plan_for(schedule, machine_a)
            plan_b = multi_plan_for(schedule, machine_b)
            assert plan_a is not None and plan_b is not None
            for _ in range(3):
                assert multi_plan_for(schedule, machine_a) is plan_a
                assert multi_plan_for(schedule, machine_b) is plan_b
        finally:
            reset_plan_cache()
        # and the results per machine stay bit-identical to the engine
        for machine in (machine_a, machine_b):
            _assert_identical(schedule, machine, unit=MSG)

    @pytest.mark.parametrize("name,kwargs", [
        ("naive", {}), ("common_neighbor", {"k": 4}),
        ("distance_halving", {}), ("bruck", {}),
    ])
    def test_message_sizes_share_one_plan(self, name, kwargs):
        # The message-size axis of a set-up instance compiles one size-free
        # plan, priced per call — and every size, 0-byte blocks included,
        # still replays the engine bit-for-bit.
        machine = _machine(nodes=2, rps=6)
        topology = TopologySpec("random", 24, density=0.3, seed=11).build()
        algorithm = get_algorithm(name, **kwargs)
        algorithm.setup(topology, machine)
        reset_plan_cache()
        try:
            for size in (0, 8, 4096, 1 << 22):
                des = run_allgather(algorithm, topology, machine, size,
                                    options=RunOptions(sim_mode="des"))
                auto = run_allgather(algorithm, topology, machine, size,
                                     options=RunOptions(sim_mode="auto"))
                assert auto.sim_path == "fastpath"
                assert auto.simulated_time == des.simulated_time
                assert auto.finish_times == des.finish_times
                assert auto.bytes_sent == des.bytes_sent
            assert PLAN_CACHE.misses == 1
        finally:
            reset_plan_cache()

    def test_structurally_equal_schedules_share_plans(self):
        # Two Schedule objects with identical op streams (fresh algorithm
        # instances over the same cell) must hit the same cache entry.
        sched_a, machine = _schedule_for("naive", {}, 16, 2, 0.4)
        sched_b, _ = _schedule_for("naive", {}, 16, 2, 0.4)
        assert sched_a is not sched_b
        assert structural_digest(sched_a) == structural_digest(sched_b)
        reset_plan_cache()
        try:
            plan_a = multi_plan_for(sched_a, machine)
            plan_b = multi_plan_for(sched_b, machine)
            assert plan_a is not None
            assert plan_b is plan_a
            assert PLAN_CACHE.hits >= 1
        finally:
            reset_plan_cache()

    def test_machine_digest_distinguishes_structure(self):
        machine_a = _machine(nodes=2, rps=4)
        machine_b = _machine(nodes=4, rps=2)
        machine_c = _machine(nodes=2, rps=4)
        assert machine_digest(machine_a) != machine_digest(machine_b)
        # structurally identical machines share plans
        assert machine_digest(machine_a) == machine_digest(machine_c)
        tweaked = dataclasses.replace(
            machine_a,
            params=dataclasses.replace(machine_a.params, call_overhead=1e-3),
        )
        assert machine_digest(tweaked) != machine_digest(machine_a)


class TestPlanCacheBounds:
    def test_lru_bound_and_stats(self):
        cache = PlanCache(max_entries=2)
        cache.put(("a",), 1)
        cache.put(("b",), 2)
        assert cache.get(("a",)) == 1  # refreshes "a"
        cache.put(("c",), 3)  # evicts "b"
        assert cache.get(("a",)) == 1
        assert cache.get(("c",)) == 3
        stats = cache.stats()
        assert stats["evictions"] == 1
        assert stats["size"] == 2
        assert cache.get(("b",)) is not cache.get(("a",))  # "b" is a miss
        assert cache.stats()["misses"] >= 1

    def test_stats_snapshot_shape(self):
        stats = plan_cache_stats()
        assert set(stats) == {"hits", "misses", "evictions", "size",
                              "max_entries", "hit_rate"}

    def test_reset_resizes_and_clears(self):
        reset_plan_cache(max_entries=3)
        try:
            assert PLAN_CACHE.max_entries == 3
            assert len(PLAN_CACHE) == 0
            with pytest.raises(ValueError):
                reset_plan_cache(max_entries=0)
        finally:
            reset_plan_cache(max_entries=None)
            from repro.sim.plancache import DEFAULT_MAX_ENTRIES
            PLAN_CACHE.max_entries = DEFAULT_MAX_ENTRIES

    def test_execute_schedule_uses_cached_plans(self):
        schedule, machine = _schedule_for("distance_halving", {}, 16, 2, 0.4)
        first = execute_schedule(schedule, machine, unit=MSG)
        hits_before = PLAN_CACHE.hits
        second = execute_schedule(schedule, machine, unit=MSG)
        assert PLAN_CACHE.hits > hits_before
        assert second.simulated_time == first.simulated_time
        assert second.events_processed == first.events_processed
