"""Discrete-event MPI simulator.

Rank programs are Python generators that post non-blocking operations and
``yield`` wait conditions; the :class:`Engine` advances virtual time
deterministically.  The collectives' generic program posts each rank's op
stream straight into the engine (:meth:`Engine.send`,
:meth:`Engine.post_recv`); hand-written programs post through a
:class:`SimCommunicator`.  Message timing is computed by the
:class:`Fabric` from the :class:`~repro.cluster.Machine`'s Hockney costs,
with cut-through pipelining over serialized resources (per-rank ports,
per-node NICs, shared global links) so congestion emerges naturally.
:func:`execute_schedule` replays a materialised op stream (a
:class:`Schedule`) without the engine, bit for bit.

The semantics intentionally mirror the paper's modelling assumptions:
single-port ranks, eager delivery, and serialized node injection.

Faults: a seeded :class:`FaultPlan` (see :mod:`repro.sim.faults`) injects
link degradation, stragglers, and message loss with timeout/backoff
retransmission; watchdog budgets (``max_sim_time``/``max_events``) raise
:class:`SimTimeoutError` when a perturbed run cannot complete.
"""

from repro.sim.communicator import ANY_SOURCE, SimCommunicator
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
from repro.sim.fastpath import FastRunOutcome, execute_schedule
from repro.sim.plancache import PlanCache, machine_digest, plan_cache_stats, reset_plan_cache
from repro.sim.request import Request
from repro.sim.schedule import (
    Schedule,
    spawn_wake_order,
    static_matching,
    structural_digest,
)
from repro.sim.timeline import chrome_trace, phase_breakdown, save_chrome_trace
from repro.sim.tracing import MessageRecord, TraceCollector

__all__ = [
    "chrome_trace",
    "phase_breakdown",
    "save_chrome_trace",
    "ANY_SOURCE",
    "SimCommunicator",
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
    "Request",
    "MessageRecord",
    "TraceCollector",
    "FastRunOutcome",
    "execute_schedule",
    "Schedule",
    "spawn_wake_order",
    "static_matching",
    "structural_digest",
    "PlanCache",
    "machine_digest",
    "plan_cache_stats",
    "reset_plan_cache",
]
