"""Engine lifetime and receive slots.

An engine holds no reference to what its programs were built from, and a
receive is a slot in the engine's flat lists, so a finished engine is
freed by reference counting (no cycle collector).
"""

import gc
import math
import weakref

import pytest

from repro.cluster import Machine
from repro.collectives import get_algorithm
from repro.collectives.alltoall import run_alltoall
from repro.collectives.base import ExecutionContext
from repro.collectives.runner import RunOptions, run_allgather
from repro.exec.spec import MachineSpec, TopologySpec
from repro.sim.engine import Engine, SimTimeoutError
from repro.sim.faults import CRASH_PROFILE_MODES, get_profile, resilience_profiles
from repro.sim.program import rank_program
from repro.topology import erdos_renyi_topology


def machine32():
    return Machine.single_switch(nodes=2, sockets_per_node=2, ranks_per_socket=8)


def naive_engine(topology, machine):
    alg = get_algorithm("naive")
    alg.setup(topology, machine)
    ctx = ExecutionContext(topology, machine, 1024, list(range(topology.n)),
                           [{} for _ in range(topology.n)])
    engine = Engine(n_ranks=topology.n, machine=machine)
    engine.spawn_all(lambda rank: alg.program(engine, rank, ctx))
    return engine, ctx


@pytest.fixture
def no_cycle_collector():
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if was_enabled:
            gc.enable()


@pytest.fixture
def engines(monkeypatch):
    """Weak references to every engine built while the test runs."""
    refs = []
    init = Engine.__init__

    def tracking_init(self, *args, **kwargs):
        init(self, *args, **kwargs)
        refs.append(weakref.ref(self))

    monkeypatch.setattr(Engine, "__init__", tracking_init)
    return refs


class TestEngineFreedByRefcount:
    def test_engine_driven_directly(self, no_cycle_collector):
        topology = erdos_renyi_topology(32, 0.3, seed=5)
        engine, ctx = naive_engine(topology, machine32())
        engine.run()
        assert ctx.results[0]
        ref = weakref.ref(engine)
        del engine
        assert ref() is None

    def test_engine_behind_run_allgather(self, no_cycle_collector, engines):
        topology = erdos_renyi_topology(32, 0.3, seed=5)
        run = run_allgather("naive", topology, machine32(), 1024,
                            options=RunOptions(sim_mode="des"))
        assert run.sim_path == "des"
        assert len(engines) == 1
        assert engines[0]() is None

    @pytest.mark.parametrize("name", ["naive_alltoall", "common_neighbor_alltoall",
                                      "distance_halving_alltoall"])
    def test_engine_behind_run_alltoall(self, no_cycle_collector, engines, name):
        topology = erdos_renyi_topology(32, 0.3, seed=5)
        run = run_alltoall(name, topology, machine32(), 1024)
        assert run.messages_sent > 0
        assert len(engines) == 1
        assert engines[0]() is None

    def test_failed_recovery_rounds_free_their_engines(self, no_cycle_collector, engines):
        # The survivors of a failed round are left suspended, and the
        # caught RankFailedError's traceback holds the recovery loop's
        # frame: neither may keep that round's engine alive.
        topology = erdos_renyi_topology(32, 0.3, seed=5)
        plan = get_profile("crash_recover", 32, seed=3)
        run = run_allgather(
            "naive", topology, machine32(), 1024,
            options=RunOptions(fault_plan=plan,
                               on_failure=CRASH_PROFILE_MODES["crash_recover"]),
        )
        assert run.recovery is not None and run.recovery["rounds"] >= 1
        assert len(engines) == run.recovery["rounds"] + 1
        assert [ref() for ref in engines] == [None] * len(engines)

    @pytest.mark.parametrize("mode", ["abort", "shrink", "degrade"])
    def test_round_stopped_by_the_watchdog_frees_its_engine(
        self, no_cycle_collector, engines, mode
    ):
        # A round that raises something other than RankFailedError (here
        # the event budget) leaves its programs suspended under every
        # on_failure mode; the round's engine must still be closed.
        topology = TopologySpec("random", 48, density=0.1, seed=12).build()
        plan = resilience_profiles(48, seed=7)["crash"]
        with pytest.raises(SimTimeoutError):
            run_allgather(
                "naive", topology, MachineSpec.for_ranks(48, 4).build(), 4096,
                options=RunOptions(fault_plan=plan, on_failure=mode, max_events=50),
            )
        assert len(engines) == 1
        assert engines[0]() is None


class TestReceiveSlots:
    def test_communicator_requests_read_their_slot(self):
        """A receive's handle is its slot: the engine's receive lists read
        ``None`` while it is pending and the matched message after."""
        machine = machine32()
        engine = Engine(n_ranks=4, machine=machine)
        seen = {}

        def receiver_ops():
            yield ("recv", 2, 5, 96)
            seen["posted_at"] = engine.rank_now[0]
            seen["pending"] = (engine.recv_done[0], engine.recv_payload[0],
                               engine.recv_nbytes[0])
            yield ("wait",)

        engine.spawn(0, rank_program(engine, 0, receiver_ops()))
        delay = math.ceil(1e-6 * machine.params.memcpy_beta)
        engine.spawn(2, rank_program(engine, 2, [("charge", delay), ("wait",),
                                                 ("send", 0, 96, 5, (7,)), ("wait",)],
                                     held=(7,)))
        engine.run()
        assert seen["pending"] == (None, None, None)
        assert (engine.recv_payload[0], engine.recv_nbytes[0]) == ((7,), 96)
        assert engine.recv_done[0] == engine.finish_time(0)
        assert engine.recv_done[0] > 1e-6
        assert engine.recv_post[0] == seen["posted_at"] > 0.0
