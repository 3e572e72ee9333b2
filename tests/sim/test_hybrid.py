"""Hybrid fast-path properties: auto/DES equivalence, executor/engine
agreement on raw schedules, and watchdog parity.

These are the accuracy gates for ``sim_mode`` (see docs/ARCHITECTURE.md):

* ``auto`` must equal the DES *bit-for-bit* on every schedule, contended
  or contention-free (the fast path is an exact replay);
* the executor must agree bit-for-bit with the engine replaying the same
  schedule (:mod:`tests.sim.engine_replay`) at the block size it is priced
  with, events included;
* watchdog budgets must trip on the same event with the same structured
  diagnostics in both paths.
"""

import dataclasses

import pytest

from repro.collectives.base import ExecutionContext, get_algorithm
from repro.collectives.runner import RunOptions, run_allgather
from repro.exec.spec import MachineSpec, TopologySpec
from repro.sim.engine import SimTimeoutError
from repro.sim.fastpath import multi_plan_for
from repro.sim.faults import FaultPlan, Straggler
from tests.sim.engine_replay import assert_matches_engine

ALGORITHMS = [
    ("naive", {}),
    ("common_neighbor", {"k": 4}),
    ("distance_halving", {}),
    ("bruck", {}),
    ("hierarchical", {}),
]


def _build(n, nodes, density, seed=0, *, sockets=2, kind="random", **topo_kw):
    rps = max(1, n // (nodes * sockets))
    machine = MachineSpec(
        nodes=nodes, sockets_per_node=sockets, ranks_per_socket=rps
    ).build()
    if kind == "random":
        topo_kw.setdefault("density", density)
        topo_kw.setdefault("seed", seed)
    topology = TopologySpec(kind, n, **topo_kw).build()
    return topology, machine


def _setup(name, kwargs, topology, machine):
    algorithm = get_algorithm(name, **kwargs)
    algorithm.setup(topology, machine)
    return algorithm


def _schedule_of(algorithm, topology, machine, msg_size=64):
    """The memoized schedule — in block counts: price it with ``unit=msg_size``."""
    ctx = ExecutionContext(
        topology=topology, machine=machine, msg_size=msg_size,
        payloads=list(range(topology.n)),
        results=[{} for _ in range(topology.n)],
    )
    return algorithm.schedule_for(ctx)


class TestAutoEqualsDes:
    """Property: sim_mode="auto" is bit-identical to the DES on contended
    and contention-free schedules — simulated time, counters, finish
    times, and buffers."""

    @pytest.mark.parametrize("name,kwargs", ALGORITHMS)
    @pytest.mark.parametrize("n,nodes,density", [
        (16, 1, 0.4), (32, 2, 0.3), (64, 4, 0.15),
    ])
    def test_bit_identical_on_contended(self, name, kwargs, n, nodes, density):
        topology, machine = _build(n, nodes, density, seed=5)
        algorithm = _setup(name, kwargs, topology, machine)
        des = run_allgather(algorithm, topology, machine, 4096,
                            options=RunOptions(sim_mode="des"))
        auto = run_allgather(algorithm, topology, machine, 4096,
                             options=RunOptions(sim_mode="auto"))
        assert auto.sim_path == "fastpath"
        assert auto.simulated_time == des.simulated_time
        assert auto.finish_times == des.finish_times
        assert auto.messages_sent == des.messages_sent
        assert auto.bytes_sent == des.bytes_sent
        assert auto.results == des.results

    @pytest.mark.parametrize("name,kwargs", ALGORITHMS)
    def test_allgatherv_block_sizes(self, name, kwargs):
        topology, machine = _build(16, 2, 0.3, seed=2)
        algorithm = _setup(name, kwargs, topology, machine)
        sizes = [(r % 5) * 128 + 8 for r in range(16)]
        des = run_allgather(algorithm, topology, machine, sizes,
                            options=RunOptions(sim_mode="des"))
        auto = run_allgather(algorithm, topology, machine, sizes,
                             options=RunOptions(sim_mode="auto"))
        assert auto.simulated_time == des.simulated_time
        assert auto.results == des.results

    @staticmethod
    def _contention_free_case():
        # 4 ranks spread one-per-socket over 2 nodes at density 0.05:
        # so few edges that no port/NIC/link is ever claimed twice.
        return _build(4, 2, 0.05, seed=3, sockets=2)

    @pytest.mark.parametrize("name,kwargs", ALGORITHMS)
    def test_bit_identical_when_contention_free(self, name, kwargs):
        topology, machine = self._contention_free_case()
        algorithm = _setup(name, kwargs, topology, machine)
        des = run_allgather(algorithm, topology, machine, 64,
                            options=RunOptions(sim_mode="des"))
        auto = run_allgather(algorithm, topology, machine, 64,
                             options=RunOptions(sim_mode="auto"))
        assert auto.sim_path == "fastpath"
        assert auto.simulated_time == des.simulated_time
        assert auto.finish_times == des.finish_times
        assert auto.results == des.results
        assert auto.messages_sent == des.messages_sent
        assert auto.bytes_sent == des.bytes_sent

    def test_single_stage_contention_free(self):
        # Naive is single-stage (one waitall).
        topology, machine = self._contention_free_case()
        algorithm = _setup("naive", {}, topology, machine)
        des = run_allgather(algorithm, topology, machine, 64,
                            options=RunOptions(sim_mode="des"))
        auto = run_allgather(algorithm, topology, machine, 64,
                             options=RunOptions(sim_mode="auto"))
        assert auto.sim_path == "fastpath"
        assert auto.simulated_time == des.simulated_time
        assert auto.finish_times == des.finish_times

    def test_self_loop_topology(self):
        topology, machine = _build(16, 1, 0.3, seed=4, self_loops=True)
        algorithm = _setup("naive", {}, topology, machine)
        des = run_allgather(algorithm, topology, machine, 512,
                            options=RunOptions(sim_mode="des"))
        auto = run_allgather(algorithm, topology, machine, 512,
                             options=RunOptions(sim_mode="auto"))
        assert auto.simulated_time == des.simulated_time
        assert auto.results == des.results


class TestDesFallback:
    """Features the replay does not model must fall back to the engine."""

    def test_fault_plan_forces_des(self):
        topology, machine = _build(16, 2, 0.3)
        algorithm = _setup("naive", {}, topology, machine)
        plan = FaultPlan(stragglers=(Straggler(rank=0, startup_delay=1e-4),))
        run = run_allgather(
            algorithm, topology, machine, 512,
            options=RunOptions(sim_mode="auto", fault_plan=plan),
        )
        assert run.sim_path == "des"

    def test_trace_forces_des(self):
        topology, machine = _build(16, 2, 0.3)
        algorithm = _setup("naive", {}, topology, machine)
        run = run_allgather(algorithm, topology, machine, 512,
                            options=RunOptions(sim_mode="auto", trace=True))
        assert run.sim_path == "des"
        assert run.trace is not None

    def test_des_mode_never_takes_fast_path(self):
        topology, machine = _build(16, 2, 0.3)
        algorithm = _setup("naive", {}, topology, machine)
        run = run_allgather(algorithm, topology, machine, 512,
                            options=RunOptions(sim_mode="des"))
        assert run.sim_path == "des"


class TestBatchExecutor:
    """The heap-driven executor replays single- and multi-stage schedules
    and must agree with the engine bit-for-bit (events included)."""

    def test_naive_single_stage_compiles_to_a_multi_plan(self):
        topology, machine = _build(32, 2, 0.3, seed=1)
        algorithm = _setup("naive", {}, topology, machine)
        schedule = _schedule_of(algorithm, topology, machine, 4096)
        assert multi_plan_for(schedule, machine) is not None

    def test_multi_stage_takes_the_multi_executor(self):
        # Multi-stage schedules compile to a plan that replays the engine
        # bit-for-bit (events included).
        topology, machine = _build(32, 2, 0.3, seed=1)
        algorithm = _setup("common_neighbor", {"k": 4}, topology, machine)
        schedule = _schedule_of(algorithm, topology, machine, 4096)
        assert assert_matches_engine(schedule, machine, 4096)[0] == "ok"

    def test_batch_matches_interpreter_bit_for_bit(self):
        topology, machine = _build(64, 4, 0.25, seed=6)
        algorithm = _setup("naive", {}, topology, machine)
        schedule = _schedule_of(algorithm, topology, machine, 8192)
        # The engine is the reference (the test's name predates that).
        assert assert_matches_engine(schedule, machine, 8192)[0] == "ok"


class TestWatchdogParity:
    """Budgets trip on the same event with the same structured fields in
    the engine and the fast path (inclusive boundary semantics)."""

    def _trip(self, sim_mode, **budget):
        topology, machine = _build(16, 2, 0.3, seed=0)
        algorithm = _setup("naive", {}, topology, machine)
        try:
            run_allgather(algorithm, topology, machine, 64,
                          options=RunOptions(sim_mode=sim_mode, **budget))
        except SimTimeoutError as exc:
            return exc
        return None

    @pytest.mark.parametrize("max_events", [1, 5, 20])
    def test_event_budget_parity(self, max_events):
        des = self._trip("des", max_events=max_events)
        auto = self._trip("auto", max_events=max_events)
        assert des is not None and auto is not None
        assert des.budget == auto.budget == "events"
        assert des.events_processed == auto.events_processed == max_events
        assert des.limit == auto.limit == max_events

    @pytest.mark.parametrize("max_sim_time", [1e-7, 1e-5])
    def test_time_budget_parity(self, max_sim_time):
        des = self._trip("des", max_sim_time=max_sim_time)
        auto = self._trip("auto", max_sim_time=max_sim_time)
        assert des is not None and auto is not None
        assert des.budget == auto.budget == "sim_time"
        assert des.events_processed == auto.events_processed
        assert des.limit == auto.limit == max_sim_time

    def test_generous_budget_completes_identically(self):
        topology, machine = _build(16, 2, 0.3, seed=0)
        algorithm = _setup("naive", {}, topology, machine)
        plain = run_allgather(algorithm, topology, machine, 64,
                              options=RunOptions(sim_mode="auto"))
        budgeted = run_allgather(
            algorithm, topology, machine, 64,
            options=RunOptions(sim_mode="auto", max_events=10**9,
                               max_sim_time=1e9),
        )
        assert budgeted.simulated_time == plain.simulated_time
        assert budgeted.results == plain.results

    def test_exact_event_count_is_allowed(self):
        # Boundary semantics: processing exactly max_events events must
        # succeed; max_events - 1 must trip with events_processed recorded.
        topology, machine = _build(16, 2, 0.3, seed=0)
        algorithm = _setup("naive", {}, topology, machine)
        exc = self._trip("des", max_events=10**9)
        assert exc is None  # never trips
        tripped = self._trip("des", max_events=1)
        assert tripped.events_processed == 1
        # Find the true event count, then check the exact boundary.
        run = run_allgather(algorithm, topology, machine, 64,
                            options=RunOptions(sim_mode="des"))
        del run
        probe = self._trip("des", max_events=10**6)
        assert probe is None

    def test_timeout_message_is_deterministic(self):
        first = self._trip("auto", max_events=3)
        second = self._trip("auto", max_events=3)
        assert str(first) == str(second)
        assert "event budget exceeded" in str(first)
        assert "rank" in str(first)


class TestHybridCaching:
    """Repeated invocations reuse the compiled schedule and stay correct."""

    def test_repeat_runs_are_bit_identical(self):
        topology, machine = _build(32, 2, 0.3, seed=8)
        algorithm = _setup("common_neighbor", {"k": 4}, topology, machine)
        opts = RunOptions(sim_mode="auto")
        runs = [run_allgather(algorithm, topology, machine, 2048, options=opts)
                for _ in range(3)]
        assert len({r.simulated_time for r in runs}) == 1
        assert runs[0].results == runs[1].results == runs[2].results

    def test_mode_interleaving_does_not_poison_caches(self):
        topology, machine = _build(16, 2, 0.3, seed=8)
        algorithm = _setup("naive", {}, topology, machine)
        seq = ["auto", "des", "auto", "des"]
        by_mode = {}
        for mode in seq:
            run = run_allgather(algorithm, topology, machine, 1024,
                                options=RunOptions(sim_mode=mode))
            by_mode.setdefault(mode, []).append(run.simulated_time)
        for mode, times in by_mode.items():
            assert len(set(times)) == 1, mode
        assert by_mode["auto"][0] == by_mode["des"][0]

    def test_jitter_machine_falls_back(self):
        topology, machine = _build(16, 2, 0.3)
        machine = dataclasses.replace(
            machine, params=dataclasses.replace(machine.params, jitter=1e-7),
        )
        algorithm = _setup("naive", {}, topology, machine)
        run = run_allgather(algorithm, topology, machine, 512,
                            options=RunOptions(sim_mode="auto"))
        assert run.sim_path == "des"
