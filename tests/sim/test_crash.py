"""Fail-stop crash semantics: engine kills, detection, ULFM recovery.

Covers the crash layer bottom-up: event-granularity kills and in-flight
drop accounting in the :class:`~repro.sim.engine.Engine`, structured
detection via :class:`~repro.sim.faults.FailureDetector` (versus a plain
``DeadlockError`` without one), and the three ``RunOptions.on_failure``
recovery modes for every allgather algorithm.
"""

import math

import pytest

from repro.cluster import Machine
from repro.collectives.runner import RunOptions, run_allgather, verify_allgather
from repro.sim.engine import DeadlockError, Engine, RankFailedError
from repro.sim.faults import FailureDetector, FaultPlan, RankCrash
from repro.topology import erdos_renyi_topology

ALGORITHMS = ("naive", "common_neighbor", "distance_halving", "bruck")


def small_machine():
    return Machine.single_switch(nodes=2, sockets_per_node=2, ranks_per_socket=2)


def small_topology(n=8, density=0.5, seed=7):
    return erdos_renyi_topology(n, density, seed=seed)


def ping_then_reply(comm):
    """Rank 0 pings rank 1 and waits for the reply; rank 1 echoes."""
    if comm.rank == 0:
        yield comm.wait(comm.isend(1, 64, tag=0))
        yield comm.wait(comm.irecv(1, tag=1))
    elif comm.rank == 1:
        yield comm.wait(comm.irecv(0, tag=0))
        yield comm.wait(comm.isend(0, 64, tag=1))


class TestEngineKill:
    def test_detector_raises_structured_failure(self):
        plan = FaultPlan(crashes=(RankCrash(rank=1, time=0.0),))
        engine = Engine(n_ranks=4, machine=small_machine(), faults=plan)
        engine.spawn_all(lambda rank: ping_then_reply)
        with pytest.raises(RankFailedError) as excinfo:
            engine.run()
        err = excinfo.value
        assert err.failed_ranks == (1,)
        detector = plan.detector
        assert err.detection_time >= (
            detector.heartbeat_interval + detector.suspicion_timeout
        )

    def test_detection_lag_charged_in_sim_time(self):
        # The engine clock is advanced to the detection instant before the
        # raise: detection is a simulated cost, not a bookkeeping footnote.
        detector = FailureDetector(heartbeat_interval=1e-3, suspicion_timeout=2e-3)
        plan = FaultPlan(crashes=(RankCrash(rank=1, time=0.0),), detector=detector)
        engine = Engine(n_ranks=4, machine=small_machine(), faults=plan)
        engine.spawn_all(lambda rank: ping_then_reply)
        with pytest.raises(RankFailedError) as excinfo:
            engine.run()
        assert excinfo.value.detection_time >= 3e-3

    def test_no_detector_is_a_plain_deadlock(self):
        # A system without failure detection hangs; the simulator models
        # that as the ordinary drained-heap deadlock.
        plan = FaultPlan(crashes=(RankCrash(rank=1, time=0.0),), detector=None)
        engine = Engine(n_ranks=4, machine=small_machine(), faults=plan)
        engine.spawn_all(lambda rank: ping_then_reply)
        with pytest.raises(DeadlockError):
            engine.run()

    def test_in_flight_send_from_dying_rank_is_dropped(self):
        # Rank 1 posts its reply but dies before the bytes land: the send
        # is rewritten to never arrive and counted as crash-dropped.
        plan = FaultPlan(crashes=(RankCrash(rank=1, time=1e-9),), detector=None)
        engine = Engine(n_ranks=4, machine=small_machine(), faults=plan)
        req = engine.post_send(1, 0, 4096, tag=0, payload=None)
        assert req.lost
        assert engine.faults.crash_dropped == 1
        assert engine.messages_lost == 1

    def test_crash_dropped_send_returns_lost_timing(self):
        plan = FaultPlan(crashes=(RankCrash(rank=1, time=1e-9),), detector=None)
        engine = Engine(n_ranks=4, machine=small_machine(), faults=plan)
        recv = engine.post_recv(0, 1, 0)
        timing = engine.send(1, 0, 4096, 0, "lost")
        assert timing.arrival == math.inf
        assert timing.send_complete < math.inf
        assert engine.messages_sent == 1
        assert engine.messages_lost == 1
        assert engine.faults.crash_dropped == 1
        # Nothing was delivered, nor queued for a later receive.
        assert recv.completion_time is None
        assert recv.payload is None
        assert engine.post_recv(0, 1, 0).completion_time is None

    def test_late_crash_is_a_noop(self):
        topology = small_topology()
        machine = small_machine()
        clean = run_allgather("naive", topology, machine, 256)
        late = FaultPlan(crashes=(RankCrash(rank=3, time=10.0),))
        crashed = run_allgather(
            "naive", topology, machine, 256,
            options=RunOptions(fault_plan=late, on_failure="shrink"),
        )
        verify_allgather(topology, crashed)
        assert crashed.simulated_time == clean.simulated_time
        assert crashed.missing_ranks == ()
        assert crashed.recovery is None
        assert crashed.fault_stats["rank_crashes"] == 0


class TestFinishedSenderDrop:
    """Fuzzer regression (seed=2, it=14): a sender whose program finishes
    *before* its crash time, but whose in-flight zero-byte send arrives
    *after* it, is crash-dropped without ever being killed by an event.
    The starved receiver's stall must still surface as structured
    detection — it used to fall through to a bare DeadlockError because
    ``crashed_ranks`` stayed empty."""

    def scenario(self):
        from repro.exec.spec import MachineSpec, TopologySpec

        topology = TopologySpec("cartesian", 4, dims=1).build()
        machine = MachineSpec(nodes=4, sockets_per_node=1,
                              ranks_per_socket=1).build()
        plan = FaultPlan(
            crashes=(RankCrash(rank=3, time=4.696145690558749e-06),),
            seed=1179901253,
        )
        return topology, machine, plan

    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    @pytest.mark.parametrize("mode", ["shrink", "degrade"])
    def test_detection_and_recovery(self, algorithm, mode):
        topology, machine, plan = self.scenario()
        run = run_allgather(
            algorithm, topology, machine, 0,
            options=RunOptions(fault_plan=plan, on_failure=mode,
                               fallback="naive"),
        )
        verify_allgather(topology, run, allow_missing=run.missing_ranks)
        assert run.missing_ranks == (3,)
        assert run.recovery["mode"] == mode

    def test_abort_names_the_finished_sender(self):
        topology, machine, plan = self.scenario()
        with pytest.raises(RankFailedError) as excinfo:
            run_allgather(
                "common_neighbor", topology, machine, 0,
                options=RunOptions(fault_plan=plan, on_failure="abort"),
            )
        assert excinfo.value.failed_ranks == (3,)


class TestRecoveryModes:
    #: Crash mid-run: the 8-rank/256B makespan is ~8 us, so 2 us kills the
    #: victims while blocks are still outstanding.
    PLAN = FaultPlan(
        crashes=(RankCrash(rank=2, time=2e-6), RankCrash(rank=5, time=2e-6)),
    )

    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    def test_abort_reraises(self, algorithm):
        with pytest.raises(RankFailedError):
            run_allgather(
                algorithm, small_topology(), small_machine(), 256,
                options=RunOptions(fault_plan=self.PLAN, on_failure="abort"),
            )

    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    @pytest.mark.parametrize("mode", ["shrink", "degrade"])
    def test_recovery_completes_and_verifies(self, algorithm, mode):
        topology = small_topology()
        run = run_allgather(
            algorithm, topology, small_machine(), 256,
            options=RunOptions(fault_plan=self.PLAN, on_failure=mode),
        )
        verify_allgather(topology, run, allow_missing=run.missing_ranks)
        assert math.isfinite(run.simulated_time)
        assert set(run.missing_ranks) <= {2, 5}
        assert run.missing_ranks  # 2 us is mid-run for every algorithm
        assert run.recovery is not None
        assert run.recovery["mode"] == mode
        assert run.recovery["rounds"] >= 1
        assert run.recovery["time_to_recover"] > 0
        # The run keeps its requested identity; what actually finished the
        # job is recorded separately.
        assert run.algorithm == algorithm
        if mode == "degrade":
            assert run.recovery["recovered_with"] == "naive"
            assert run.recovery["replan_messages"] == 0

    def test_shrink_pays_replanning_degrade_does_not(self):
        topology = small_topology()
        runs = {
            mode: run_allgather(
                "distance_halving", topology, small_machine(), 256,
                options=RunOptions(fault_plan=self.PLAN, on_failure=mode),
            )
            for mode in ("shrink", "degrade")
        }
        assert runs["shrink"].recovery["replan_messages"] > 0
        assert runs["degrade"].recovery["replan_messages"] == 0
        # Both lose only planned victims; survivors agree after masking the
        # union of missing sources (recovery timing differs, so the exact
        # missing sets may too).
        ignore = set(runs["shrink"].missing_ranks) | set(runs["degrade"].missing_ranks)
        assert ignore <= {2, 5}
        for rank in range(topology.n):
            if rank in ignore:
                continue
            a = {s: p for s, p in runs["shrink"].results[rank].items()
                 if s not in ignore}
            b = {s: p for s, p in runs["degrade"].results[rank].items()
                 if s not in ignore}
            assert a == b

    def test_crash_runs_are_deterministic(self):
        options = RunOptions(fault_plan=self.PLAN, on_failure="shrink")
        first = run_allgather(
            "common_neighbor", small_topology(), small_machine(), 256,
            options=options,
        )
        second = run_allgather(
            "common_neighbor", small_topology(), small_machine(), 256,
            options=options,
        )
        assert first.simulated_time == second.simulated_time
        assert first.missing_ranks == second.missing_ranks
        assert first.fault_stats == second.fault_stats
        assert first.recovery == second.recovery
