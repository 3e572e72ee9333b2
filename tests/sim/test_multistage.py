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
* ops the engine rejects (a stray peer, a negative byte count): the
  compiler raises the engine's ``ValueError``;
* the plan cache, keyed by the set-up pattern: alternating two machines
  must not evict each other's plans (the old single-entry ``fastpath``
  memo's regression), one size-free plan per pattern across message sizes
  and fresh instances, a new plan for any change to the key, plus LRU
  bounds and stats.
"""

import dataclasses

import pytest

from repro.collectives.base import (
    ExecutionContext,
    NeighborhoodAllgatherAlgorithm,
    get_algorithm,
)
from repro.collectives.runner import RunOptions, run_allgather
from repro.cluster.machine import Machine
from repro.exec import RunSpec, execute
from repro.exec.spec import MachineSpec, TopologySpec
from repro.sim.engine import DeadlockError, SimTimeoutError
from repro.sim.fabric import routes_for
from repro.sim.fastpath import (
    FastRunOutcome,
    compile_schedule,
    execute_schedule,
    multi_plan_for,
)
from repro.sim.plancache import (
    PLAN_CACHE,
    PlanCache,
    machine_digest,
    plan_cache_stats,
    reset_plan_cache,
    topology_digest,
)
from repro.sim.schedule import Schedule, spawn_wake_order, static_matching
from repro.topology.graph import DistGraphTopology
from tests.sim.engine_replay import (
    assert_deadlocks_like_engine,
    assert_matches_engine,
    replay,
    run_on_engine,
)


def _machine(nodes=2, sockets=2, rps=4):
    return MachineSpec(nodes=nodes, sockets_per_node=sockets,
                       ranks_per_socket=rps).build()


#: Block size the memoized (block-count) schedules below are priced with.
MSG = 4096


def _context(topology, machine, msg=MSG):
    n = topology.n
    return ExecutionContext(
        topology=topology, machine=machine, msg_size=msg,
        payloads=list(range(n)), results=[{} for _ in range(n)],
    )


def _schedule_for(name, kwargs, n, nodes, density, msg=MSG, seed=3):
    """``schedule_for``'s block-count schedule — price it with ``unit=msg``."""
    machine = _machine(nodes=nodes, rps=max(1, n // (nodes * 2)))
    topology = TopologySpec("random", n, density=density, seed=seed).build()
    algorithm = get_algorithm(name, **kwargs)
    algorithm.setup(topology, machine)
    return algorithm.schedule_for(_context(topology, machine, msg)), machine


@pytest.fixture
def schedule_builds(monkeypatch):
    """Count ``schedule_for`` calls (every schedule the fast path builds)."""
    builds = []
    original = NeighborhoodAllgatherAlgorithm.schedule_for

    def counted(self, ctx):
        builds.append(self.name)
        return original(self, ctx)

    monkeypatch.setattr(NeighborhoodAllgatherAlgorithm, "schedule_for", counted)
    return builds


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
        schedule = Schedule.from_ops(n_ranks=4, ops=ops, deliveries=[[], [], [], []])
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
        schedule = Schedule.from_ops(n_ranks=2, ops=ops, deliveries=[[], []])
        _assert_identical(schedule, machine)

    def test_single_rank_schedule(self):
        machine = _machine(nodes=1, sockets=1, rps=1)
        ops = [[("charge", 512), ("send", 0, 128, 0), ("recv", 0, 0),
                ("wait",), ("charge", 64), ("wait",)]]
        schedule = Schedule.from_ops(n_ranks=1, ops=ops, deliveries=[[0]])
        out = _assert_identical(schedule, machine)
        assert out.finish_times[0] == out.simulated_time

    def test_none_rank_has_no_events(self):
        machine = _machine(nodes=1, sockets=1, rps=4)
        ops = [
            [("send", 2, 64, 0), ("wait",)],
            None,
            [("recv", 0, 0), ("wait",)],
        ]
        schedule = Schedule.from_ops(n_ranks=3, ops=ops, deliveries=[[], [], [0]])
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
        schedule = Schedule.from_ops(n_ranks=2, ops=ops, deliveries=[[], [0]])
        slots, n_slots, fully_matched = static_matching(schedule)
        assert fully_matched and slots == [0, -1] and n_slots == 1
        _assert_identical(schedule, machine)

    def test_negative_unit_is_rejected(self):
        machine = _machine(nodes=1, sockets=1, rps=2)
        schedule = Schedule.from_ops(
            n_ranks=2,
            ops=[[("send", 1, 1, 0), ("wait",)], [("recv", 0, 0), ("wait",)]],
            deliveries=[[], [0]],
        )
        with pytest.raises(ValueError, match="unit"):
            replay(schedule, machine, unit=-8)

    def test_unmatched_recv_deadlocks_like_engine(self):
        # A receive with no sender keeps its slot and its owner blocks: the
        # executor reports the engine's deadlock after the same events.
        machine = _machine(nodes=1, sockets=1, rps=2)
        ops = [
            [("send", 1, 64, 0), ("wait",)],
            [("recv", 0, 0), ("recv", 0, 7), ("wait",)],
        ]
        schedule = Schedule.from_ops(n_ranks=2, ops=ops, deliveries=[[], [0]])
        assert static_matching(schedule)[2] is False
        blocked = r"blocked processes: rank 1 \(waitall\(1 pending\)\)$"
        events = assert_deadlocks_like_engine(schedule, machine)
        assert events == 3  # two spawns and rank 0's wake
        with pytest.raises(DeadlockError, match=blocked):
            replay(schedule, machine)

    @pytest.mark.parametrize("name,kwargs", [
        ("common_neighbor", {"k": 4}), ("distance_halving", {}), ("bruck", {}),
    ])
    def test_multistage_algorithms_match_interpreter(self, name, kwargs):
        # The engine is the reference (the test's name predates that).
        schedule, machine = _schedule_for(name, kwargs, 48, 3, 0.3)
        _assert_identical(schedule, machine, unit=MSG)


class TestRejectsWhatTheEngineRejects:
    """The compiler raises the engine's ``ValueError`` for an op the engine
    rejects, where the executor used to return a time, deadlock, or price
    a send to a stray peer on an aliased route."""

    MACHINE = Machine.niagara_like(nodes=2, ranks_per_socket=2)

    def _assert_raises_like_engine(self, ops, text):
        schedule = Schedule.from_ops(len(ops), ops, [[] for _ in ops])
        with pytest.raises(ValueError) as engine_error:
            run_on_engine(schedule, self.MACHINE)
        assert str(engine_error.value) == text
        with pytest.raises(ValueError) as fast_error:
            replay(schedule, self.MACHINE)
        assert str(fast_error.value) == text

    def test_negative_send_size(self):
        ops = [[("send", 1, -4, 0), ("wait",)], [("recv", 0, 0), ("wait",)]]
        self._assert_raises_like_engine(ops, "nbytes must be >= 0, got -4")

    def test_negative_charge(self):
        ops = [[("charge", -4), ("wait",)], None]
        self._assert_raises_like_engine(ops, "nbytes must be >= 0, got -4")

    def test_receive_from_a_stray_rank(self):
        ops = [[("recv", -1, 0), ("wait",)]] + [None] * 7
        self._assert_raises_like_engine(ops, "source rank -1 out of range [0, 8)")

    def test_send_to_a_stray_rank_on_a_known_route(self):
        # Rank 2 (socket 1) names rank -1 through socket key 4 - 1 = 3,
        # the socket 0 -> 3 route a send from rank 0 to rank 7 resolves.
        warm = [[("send", 7, 1, 0), ("wait",)]] + [None] * 6 + [[("recv", 0, 0), ("wait",)]]
        compile_schedule(Schedule.from_ops(8, warm, [[]] * 8), self.MACHINE)
        assert 3 in routes_for(self.MACHINE).rows
        ops = [None, None, [("send", -1, 1, 0), ("wait",)]] + [None] * 5
        self._assert_raises_like_engine(ops, "destination rank -1 out of range [0, 8)")

    def test_first_rejected_op_in_rank_major_order(self):
        ops = [[("charge", 1), ("send", 1, -2, 0), ("recv", 9, 0), ("wait",)],
               [("charge", -3), ("wait",)]]
        schedule = Schedule.from_ops(2, ops, [[], []])
        with pytest.raises(ValueError, match=r"^nbytes must be >= 0, got -2$"):
            replay(schedule, _machine(nodes=1, sockets=1, rps=2))


class TestCompilerRejects:
    """What the compiler rejects beyond the engine's op checks."""

    OPS = [[("send", 1, 1, 0), ("wait",)], [("recv", 0, 0), ("wait",)]]

    @pytest.mark.parametrize("bad", [-1, 2])
    def test_a_delivery_that_names_no_rank(self, bad):
        # Deliveries name sources through the plan's rank-id table, where
        # -1 would silently alias the last rank.
        schedule = Schedule.from_ops(2, self.OPS, [[], [0, bad]])
        text = rf"^rank 1 delivers block {bad}, out of range \[0, 2\)$"
        with pytest.raises(ValueError, match=text):
            compile_schedule(schedule, _machine(nodes=1, sockets=1, rps=2))

    def test_a_jitter_machine(self):
        machine = _machine(nodes=1, sockets=1, rps=2)
        jittery = dataclasses.replace(
            machine, params=dataclasses.replace(machine.params, jitter=0.1))
        with pytest.raises(ValueError, match="jitter-free"):
            compile_schedule(Schedule.from_ops(2, self.OPS, [[], [0]]), jittery)

    def test_deliveries_share_the_rank_ids(self):
        # A delivery's source is the plan's one int object for that rank
        # (the one sends to it hold), not the schedule's own object.
        n = 300
        ops = [None] * n
        ops[0] = [("send", n - 1, 1, 0), ("recv", n - 1, 0), ("wait",)]
        ops[n - 1] = [("send", 0, 1, 0), ("recv", 0, 0), ("wait",)]
        deliveries = [[] for _ in range(n)]
        deliveries[0] = [int(str(n - 1))]
        deliveries[n - 1] = [0]
        plan = compile_schedule(Schedule.from_ops(n, ops, deliveries),
                              _machine(nodes=10, sockets=2, rps=15))
        assert plan.deliveries[0] == (n - 1,) and plan.deliveries[n - 1] == (0,)
        assert plan.deliveries[1] == ()
        (send,) = plan.rank_segs[0][0][2]
        assert plan.deliveries[0][0] is send[2]
        assert deliveries[0][0] is not send[2]


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
    """Plans are keyed by the set-up pattern (backend class, constructor
    arguments, topology, machine, block sizes), not by the schedule: the
    cache holds plans for several machines at once (the regression the old
    single-entry ``_fp``/``_fp_batch`` memo had), a pattern compiled once
    serves every later cell of it without building a schedule, and a
    change to any part of the key compiles a new plan."""

    def test_two_machines_alternate_without_eviction(self, schedule_builds):
        topology = TopologySpec("random", 16, density=0.4, seed=3).build()
        machines = (_machine(nodes=2, rps=4), _machine(nodes=4, rps=2))
        reset_plan_cache()
        try:
            plans = []
            for _ in range(4):
                for machine in machines:
                    naive = get_algorithm("naive")  # a fresh instance per cell
                    naive.setup(topology, machine)
                    plans.append(multi_plan_for(naive, _context(topology, machine)))
            assert plans[0] is not plans[1]
            assert plans[0::2] == [plans[0]] * 4 and plans[1::2] == [plans[1]] * 4
            assert (PLAN_CACHE.misses, PLAN_CACHE.hits) == (2, 6)
            assert schedule_builds == ["naive", "naive"]
        finally:
            reset_plan_cache()

    def test_two_machines_alternate_multi_plans(self, schedule_builds):
        # Alternating cells of a multi-stage backend on two machines: one
        # plan per machine, and every cell still replays the engine.
        topology = TopologySpec("random", 16, density=0.4, seed=3).build()
        machines = (_machine(nodes=2, rps=4), _machine(nodes=4, rps=2))
        reset_plan_cache()
        try:
            for _ in range(3):
                for machine in machines:
                    runs = [run_allgather(get_algorithm("common_neighbor", k=4), topology,
                                          machine, MSG, options=RunOptions(sim_mode=mode))
                            for mode in ("auto", "des")]
                    auto, des = runs
                    assert auto.sim_path == "fastpath"
                    assert auto.simulated_time == des.simulated_time
                    assert auto.finish_times == des.finish_times
                    assert auto.messages_sent == des.messages_sent
                    assert auto.bytes_sent == des.bytes_sent
                    assert auto.results == des.results
            assert (PLAN_CACHE.misses, PLAN_CACHE.hits) == (2, 4)
            assert schedule_builds == ["common_neighbor"] * 2
        finally:
            reset_plan_cache()
        # and each machine's schedule replays the engine field for field,
        # its event count included
        for machine in machines:
            algorithm = get_algorithm("common_neighbor", k=4)
            algorithm.setup(topology, machine)
            _assert_identical(algorithm.schedule_for(_context(topology, machine)),
                              machine, unit=MSG)

    @pytest.mark.parametrize("name,kwargs", [
        ("naive", {}), ("common_neighbor", {"k": 4}),
        ("distance_halving", {}), ("bruck", {}),
    ])
    def test_message_sizes_share_one_plan(self, name, kwargs, schedule_builds):
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
            assert schedule_builds == [name]
        finally:
            reset_plan_cache()

    def test_fresh_instances_of_one_pattern_build_one_schedule(self, schedule_builds):
        # A cold sweep: every cell sets up a fresh instance on a freshly
        # built topology and machine.  The first cell of the pattern builds
        # and compiles its schedule; the other sizes build nothing.
        specs = [
            RunSpec("common_neighbor", TopologySpec("random", 24, density=0.3, seed=11),
                    MachineSpec(nodes=2, sockets_per_node=2, ranks_per_socket=6), size,
                    algorithm_kwargs={"k": 4},
                    options=RunOptions(sim_mode="auto", verify=True))
            for size in (8, 64, 1024, 8192, 65536)
        ]
        reset_plan_cache()
        try:
            outcomes = execute(specs, workers=1).outcomes
            assert [outcome.error for outcome in outcomes] == [None] * 5
            assert schedule_builds == ["common_neighbor"]
            assert (PLAN_CACHE.misses, PLAN_CACHE.hits) == (1, 4)
        finally:
            reset_plan_cache()
        for spec, outcome in zip(specs, outcomes):
            des = dataclasses.replace(spec, options=RunOptions(sim_mode="des")).run()
            assert outcome.run.sim_path == "fastpath"
            assert outcome.run.simulated_time == des.simulated_time
            assert outcome.run.finish_times == des.finish_times

    def test_each_part_of_the_key_compiles_a_new_plan(self, schedule_builds):
        # From one Common Neighbor cell: another k, one more topology edge,
        # a placement draw, an allgatherv size list and that list with one
        # size changed are each a new pattern.  Every cell replays the
        # engine, and a second pass over fresh instances only hits.
        n = 16
        spec = MachineSpec(nodes=4, sockets_per_node=2, ranks_per_socket=2)
        base = TopologySpec("random", n, density=0.3, seed=5).build()
        u, v = next((u, v) for u in range(n) for v in range(n)
                    if u != v and not base.has_edge(u, v))
        out = [list(base.out_neighbors(r)) for r in range(n)]
        out[u].append(v)
        grown = DistGraphTopology(n, out)
        sizes = [64 + 8 * r for r in range(n)]
        cells = [
            ({"k": 4}, base, spec, 1024),
            ({"k": 2}, base, spec, 1024),
            ({"k": 4}, grown, spec, 1024),
            ({"k": 4}, base, dataclasses.replace(spec, placement_seed=1), 1024),
            ({"k": 4}, base, spec, sizes),
            ({"k": 4}, base, spec, sizes[:-1] + [sizes[-1] + 8]),
        ]
        reset_plan_cache()
        try:
            for i, (kwargs, topology, machine_spec, size) in enumerate(cells):
                machine = machine_spec.build()
                auto, des = (
                    run_allgather(get_algorithm("common_neighbor", **kwargs), topology,
                                  machine, size, options=RunOptions(sim_mode=mode))
                    for mode in ("auto", "des"))
                assert auto.sim_path == "fastpath"
                assert auto.simulated_time == des.simulated_time
                assert auto.finish_times == des.finish_times
                assert auto.results == des.results
                assert (PLAN_CACHE.misses, PLAN_CACHE.hits) == (i + 1, 0)
            for kwargs, topology, machine_spec, size in cells:
                run_allgather(get_algorithm("common_neighbor", **kwargs), topology,
                              machine_spec.build(), size, options=RunOptions(sim_mode="auto"))
            assert (PLAN_CACHE.misses, PLAN_CACHE.hits) == (len(cells), len(cells))
            assert len(schedule_builds) == len(cells)
        finally:
            reset_plan_cache()

    def test_context_must_carry_the_set_up_objects(self):
        # The key names the set-up pattern while a miss compiles for the
        # context, so a context carrying any other topology or machine —
        # an equal one included — is refused before the cache is read.
        topology = TopologySpec("random", 16, density=0.4, seed=3).build()
        machine = _machine(nodes=2, rps=4)
        naive = get_algorithm("naive")
        naive.setup(topology, machine)
        others = (
            _context(topology, _machine(nodes=4, rps=2)),
            _context(topology, _machine(nodes=2, rps=4)),
            _context(TopologySpec("random", 16, density=0.4, seed=3).build(), machine),
        )
        reset_plan_cache()
        try:
            for ctx in others:
                with pytest.raises(ValueError, match="set up on"):
                    multi_plan_for(naive, ctx)
            assert (len(PLAN_CACHE), PLAN_CACHE.misses) == (0, 0)
            multi_plan_for(naive, _context(topology, machine))
            assert (len(PLAN_CACHE), PLAN_CACHE.misses) == (1, 1)
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

    def test_topology_digest_names_the_out_lists(self):
        spec = TopologySpec("random", 16, density=0.3, seed=5)
        base = spec.build()
        assert topology_digest(spec.build()) == topology_digest(base)
        out = [list(base.out_neighbors(r)) for r in range(16)]
        dropped = out[0].pop()
        assert topology_digest(DistGraphTopology(16, out)) != topology_digest(base)
        out[1].append(dropped)  # the same edge count, one edge moved
        assert topology_digest(DistGraphTopology(16, out)) != topology_digest(base)
        widened = DistGraphTopology(17, [base.out_neighbors(r) for r in range(16)])
        assert topology_digest(widened) != topology_digest(base)


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

    def test_execute_schedule_uses_cached_plans(self, schedule_builds):
        # A second, fresh instance of a pattern gets the first one's plan
        # without building a schedule, and replays it to the same outcome.
        topology = TopologySpec("random", 16, density=0.4, seed=3).build()
        machine = _machine(nodes=2, rps=4)
        reset_plan_cache()
        try:
            plans, outcomes = [], []
            for _ in range(2):
                algorithm = get_algorithm("distance_halving")
                algorithm.setup(topology, machine)
                plans.append(multi_plan_for(algorithm, _context(topology, machine)))
                outcomes.append(execute_schedule(plans[-1], unit=MSG))
            assert plans[1] is plans[0]
            assert PLAN_CACHE.hits == 1
            assert schedule_builds == ["distance_halving"]
        finally:
            reset_plan_cache()
        first, second = outcomes
        assert second.simulated_time == first.simulated_time
        assert second.events_processed == first.events_processed
