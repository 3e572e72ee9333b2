"""Discrete-event MPI simulator.

Every rank runs one program, :func:`rank_program`: an interpreter of the
rank's op stream (``charge``, ``send``, ``recv``, ``wait``, ``deliver``
over opaque block ids) that posts straight into the :class:`Engine`
(:meth:`Engine.send`, :meth:`Engine.recv`, which returns a receive slot)
and yields its one wait condition; the engine advances virtual time
deterministically.  The allgather and alltoall backends and the
calibration ping-pong are all op streams.  Message timing is computed by
the :class:`Fabric` from the :class:`~repro.cluster.Machine`'s Hockney
costs, with cut-through pipelining over serialized resources (per-rank
ports, per-node NICs, shared global links) so congestion emerges
naturally.  :func:`execute_schedule` replays a materialised op stream (a
:class:`Schedule`, compiled by :func:`compile_schedule`) without the
engine, bit for bit.

The semantics intentionally mirror the paper's modelling assumptions:
single-port ranks, eager delivery, and serialized node injection.

Faults: a seeded :class:`FaultPlan` (see :mod:`repro.sim.faults`) injects
link degradation, stragglers, and message loss with timeout/backoff
retransmission; watchdog budgets (``max_sim_time``/``max_events``) raise
:class:`SimTimeoutError` when a perturbed run cannot complete.
"""

from repro.sim.engine import DeadlockError, Engine, SimTimeoutError
from repro.sim.fabric import Fabric, MessageTiming
from repro.sim.faults import (
    FaultInjector,
    FaultPlan,
    LinkFault,
    MessageLoss,
    RetryPolicy,
    Straggler,
    get_profile,
    resilience_profiles,
)
from repro.sim.fastpath import FastRunOutcome, compile_schedule, execute_schedule
from repro.sim.plancache import (
    PlanCache,
    machine_digest,
    plan_cache_stats,
    reset_plan_cache,
    topology_digest,
)
from repro.sim.program import rank_program
from repro.sim.schedule import Schedule, spawn_wake_order, static_matching
from repro.sim.timeline import chrome_trace, phase_breakdown, save_chrome_trace
from repro.sim.tracing import MessageRecord, TraceCollector

__all__ = [
    "chrome_trace",
    "phase_breakdown",
    "save_chrome_trace",
    "Engine",
    "DeadlockError",
    "SimTimeoutError",
    "Fabric",
    "MessageTiming",
    "FaultInjector",
    "FaultPlan",
    "LinkFault",
    "MessageLoss",
    "RetryPolicy",
    "Straggler",
    "get_profile",
    "resilience_profiles",
    "rank_program",
    "MessageRecord",
    "TraceCollector",
    "FastRunOutcome",
    "compile_schedule",
    "execute_schedule",
    "Schedule",
    "spawn_wake_order",
    "static_matching",
    "PlanCache",
    "machine_digest",
    "topology_digest",
    "plan_cache_stats",
    "reset_plan_cache",
]
