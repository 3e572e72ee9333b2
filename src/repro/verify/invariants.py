"""Metamorphic invariants and conservation laws checked on fuzz trials.

Each ``check_*`` function inspects one differential trial (a
:class:`~repro.verify.generators.Scenario` plus the per-algorithm
:class:`~repro.collectives.runner.AllgatherRun` results) and returns a list
of :class:`Violation` records — empty when the invariant holds.
:func:`run_invariants` dispatches the whole battery, gating each check on
what the scenario makes observable (fault plans disable the clean-only
metamorphic relations but enable the loss-accounting laws).

The catalog (see ``docs/ARCHITECTURE.md`` §6 for the full rationale):

``payload_equivalence``
    The MPI post-condition per algorithm: every rank holds exactly its
    in-neighbors' blocks with the payloads they sent
    (:func:`~repro.collectives.runner.verify_allgather`).
``cross_algorithm``
    All algorithms that completed deliver *identical* result buffers —
    the differential core: the three designs differ only in cost.
``trace_conservation``
    Bookkeeping laws between engine counters, per-link-class trace
    aggregates, and fault-injector statistics: bytes sent == bytes
    delivered per class under no loss, attempts == messages + observed
    retransmissions, lost messages appear only under a lossy *or crash*
    plan (an in-flight send to or from a dead rank is dropped and counted
    lost), and trace-level losses == injector losses + crash drops.
``survivor_completeness``
    Crash plans: a run's ``missing_ranks`` may only name planned crash
    victims, and every survivor holds every survivor's block — checked by
    ``payload_equivalence`` verifying with
    ``allow_missing=run.missing_ranks`` (crashed blocks are optional,
    everything else is mandatory).
``crash_agreement``
    Crash plans: re-running with the *other* recovery mode (shrink vs
    degrade) must reach the same steady state — same planned-victim
    bound on ``missing_ranks``, and identical survivor buffers once
    crashed sources are masked out.  The two recovery state machines are
    mutual oracles, exactly like the DES/hybrid pair.
``size_monotonicity``
    Clean scenarios only: halving the message size must not increase
    ``simulated_time`` (the α–β cost model is monotone in bytes).
``relabel_conservation``
    Applying a machine-automorphic (within-socket) rank permutation to
    the topology preserves correctness for every algorithm and preserves
    the naive algorithm's message/byte totals and per-class composition.
    Note the deliberate refinement versus the obvious stronger claim:
    ``simulated_time`` is *not* invariant under relabeling, because port
    contention breaks ties in rank order — empirically the stronger form
    fails on ~60% of random scenarios, for all three algorithms.
``payload_independence``
    Payloads are opaque cargo: permuting the payload *values* (not the
    ranks) changes nothing observable except the delivered objects —
    simulated time, counters, and per-class aggregates are bit-identical.
``hybrid_equivalence``
    Clean scenarios only: re-running with ``sim_mode="auto"`` must be
    bit-identical to the DES on every schedule (``auto`` is exact replay)
    — the hybrid path and the DES are mutual differential oracles.
``dh_structure``
    Structural checks on the Distance Halving pattern itself: the
    exactly-once delivery invariant (:func:`check_pattern`), each split
    just after the paper's midpoint of an interval of more than L ranks,
    at most one agent/origin per rank per level, agents always in the
    opposite half of the searcher's interval, and ``recv_for_me``
    consistent with the incoming buffer and the topology.
``auto_selection``
    Re-runs the trial under ``algorithm="auto"`` (:mod:`repro.select`):
    the resolved pick must come from the fault class's registry candidate
    set, must never trip the graceful-degradation fallback (the selector's
    survivability walk is supposed to reject such candidates up front),
    must satisfy the MPI post-condition, and — when the selection's
    constructor kwargs match the differential run's defaults — must cost
    exactly what the directly-named run of the same algorithm cost.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any, TYPE_CHECKING

from repro.collectives.runner import VerificationError, verify_allgather

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.collectives.runner import AllgatherRun
    from repro.topology.graph import DistGraphTopology
    from repro.verify.generators import Scenario

#: Invariant names, in the order the battery runs them.
INVARIANTS = (
    "execution",
    "payload_equivalence",
    "cross_algorithm",
    "trace_conservation",
    "survivor_completeness",
    "crash_agreement",
    "size_monotonicity",
    "relabel_conservation",
    "payload_independence",
    "hybrid_equivalence",
    "dh_structure",
    "auto_selection",
)


@dataclass(frozen=True)
class Violation:
    """One invariant failure on one trial (plain data, JSON-safe)."""

    invariant: str
    algorithm: str | None
    detail: str
    data: dict[str, Any] = field(default_factory=dict)

    def as_dict(self) -> dict[str, Any]:
        return {
            "invariant": self.invariant,
            "algorithm": self.algorithm,
            "detail": self.detail,
            "data": self.data,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "Violation":
        return cls(
            invariant=data["invariant"],
            algorithm=data.get("algorithm"),
            detail=data.get("detail", ""),
            data=dict(data.get("data", {})),
        )

    def __str__(self) -> str:
        alg = f" [{self.algorithm}]" if self.algorithm else ""
        return f"{self.invariant}{alg}: {self.detail}"


class InvariantViolation(AssertionError):
    """Raised by :func:`assert_invariants` — carries the violation list."""

    def __init__(self, scenario: "Scenario", violations: list[Violation]):
        lines = [f"{len(violations)} invariant violation(s) on {scenario.label()}:"]
        lines += [f"  - {v}" for v in violations]
        super().__init__("\n".join(lines))
        self.scenario = scenario
        self.violations = list(violations)


# --------------------------------------------------------------------------
# individual checks
# --------------------------------------------------------------------------

def check_payload_equivalence(
    topology: "DistGraphTopology", runs: dict[str, "AllgatherRun"]
) -> list[Violation]:
    """The MPI post-condition, per algorithm, via :func:`verify_allgather`."""
    violations = []
    for name, run in runs.items():
        try:
            verify_allgather(topology, run, allow_missing=run.missing_ranks)
        except VerificationError as exc:
            violations.append(
                Violation("payload_equivalence", name, str(exc), exc.as_dict())
            )
    return violations


def check_cross_algorithm(runs: dict[str, "AllgatherRun"]) -> list[Violation]:
    """All completed algorithms deliver identical per-rank result buffers."""
    if len(runs) < 2:
        return []
    names = sorted(runs)
    ref_name = names[0]
    ref = runs[ref_name].results
    # Crashed sources deliver best-effort (in-flight drops differ per
    # schedule), so mask the union of every run's missing ranks: what is
    # left is the part of the post-condition all algorithms must agree on.
    ignore: set[int] = set()
    for run in runs.values():
        ignore.update(run.missing_ranks)
    violations = []
    for name in names[1:]:
        other = runs[name].results
        if len(other) != len(ref):
            violations.append(Violation(
                "cross_algorithm", name,
                f"{name} produced {len(other)} rank buffers, "
                f"{ref_name} produced {len(ref)}",
            ))
            continue
        for rank, (a, b) in enumerate(zip(ref, other)):
            if rank in ignore:
                continue  # a crashed rank's own buffer is partial by design
            a = {src: p for src, p in a.items() if src not in ignore}
            b = {src: p for src, p in b.items() if src not in ignore}
            if a != b:
                only_a = sorted(set(a) - set(b))
                only_b = sorted(set(b) - set(a))
                diff_payload = sorted(
                    src for src in set(a) & set(b) if a[src] != b[src]
                )
                violations.append(Violation(
                    "cross_algorithm", name,
                    f"rank {rank} buffers differ between {ref_name} and {name}: "
                    f"only-{ref_name}={only_a} only-{name}={only_b} "
                    f"payload-mismatch={diff_payload}",
                    {"rank": rank, "reference": ref_name},
                ))
                break  # first differing rank per algorithm is enough
    return violations


def check_trace_conservation(
    scenario: "Scenario", runs: dict[str, "AllgatherRun"]
) -> list[Violation]:
    """Bookkeeping laws tying engine counters, trace aggregates, and faults.

    Works off ``run.trace_summary`` (plain JSON), so the same check runs on
    live, slimmed, worker-returned, and cache-loaded runs.
    """
    plan = scenario.options.fault_plan
    lossy = plan is not None and any(not l.is_noop for l in plan.losses)
    crashy = plan is not None and bool(plan.crashes)
    violations: list[Violation] = []

    def bad(name: str, detail: str, **data: Any) -> None:
        violations.append(Violation("trace_conservation", name, detail, data))

    for name, run in runs.items():
        summary = run.trace_summary
        if summary is None:
            if scenario.options.trace:
                bad(name, "trace=True run carries no trace_summary")
            continue
        messages = sum(c["messages"] for c in summary.values())
        nbytes = sum(c["bytes"] for c in summary.values())
        delivered = sum(c["delivered_messages"] for c in summary.values())
        lost = sum(c["lost_messages"] for c in summary.values())
        attempts = sum(c["attempts"] for c in summary.values())

        if messages != run.messages_sent:
            bad(name, f"trace counted {messages} messages, engine counted "
                      f"{run.messages_sent}")
        if nbytes != run.bytes_sent:
            bad(name, f"trace counted {nbytes} bytes, engine counted "
                      f"{run.bytes_sent}")
        if delivered + lost != messages:
            bad(name, f"delivered ({delivered}) + lost ({lost}) != "
                      f"sent ({messages})")
        if attempts < messages:
            bad(name, f"attempts ({attempts}) < messages ({messages})")
        for cls, c in summary.items():
            if c["delivered_messages"] + c["lost_messages"] != c["messages"]:
                bad(name, f"{cls}: delivered + lost != messages ({c})")
            if c["lost_messages"] == 0 and c["delivered_bytes"] != c["bytes"]:
                bad(name, f"{cls}: no losses but delivered_bytes "
                          f"{c['delivered_bytes']} != bytes {c['bytes']}")
            if not lossy:
                if c["lost_messages"] and not crashy:
                    bad(name, f"{cls}: {c['lost_messages']} lost messages "
                              "under a plan with no loss spec")
                # Crash drops are *not* retried (the peer is dead), so
                # attempts == messages survives pure-crash plans.
                if c["attempts"] != c["messages"]:
                    bad(name, f"{cls}: {c['attempts']} attempts for "
                              f"{c['messages']} messages under no loss spec")

        stats = run.fault_stats
        if stats is not None:
            if attempts - messages != stats["retransmissions"]:
                bad(name, f"trace attempts - messages = {attempts - messages} "
                          f"but injector counted {stats['retransmissions']} "
                          "retransmissions")
            expected_lost = stats["messages_lost"] + stats.get("crash_dropped", 0)
            if lost != expected_lost:
                bad(name, f"trace counted {lost} lost messages, injector "
                          f"counted {stats['messages_lost']} lost + "
                          f"{stats.get('crash_dropped', 0)} crash-dropped")
            if stats["drops"] != stats["retransmissions"] + stats["messages_lost"]:
                bad(name, "injector drops != retransmissions + messages_lost "
                          f"({stats})")
        elif lossy:
            bad(name, "lossy plan but run carries no fault_stats")

        # Lost messages never deliver: a permanently lost message must not
        # also appear in any rank's result buffer — checked indirectly by
        # payload_equivalence (a loss would surface as a missing block).
        if run.trace is not None:
            for rec in run.trace.records:
                if rec.arrival == math.inf and not (lossy or crashy):
                    bad(name, f"message {rec.src}->{rec.dst} arrived at inf "
                              "under a plan with no loss or crash spec")
                    break
    return violations


def check_survivor_completeness(
    scenario: "Scenario", runs: dict[str, "AllgatherRun"]
) -> list[Violation]:
    """Crash plans: only planned victims may go missing, recovery is sane.

    The positive half — every survivor holds every survivor's block — is
    enforced by ``payload_equivalence`` verifying with
    ``allow_missing=run.missing_ranks``; here we pin the *bound* on that
    relaxation: ``missing_ranks`` must be a subset of the planned crash
    victims, and a recovery record, when present, must match the options
    that produced it.
    """
    plan = scenario.options.fault_plan
    planned = {c.rank for c in plan.crashes} if plan is not None else set()
    violations = []
    for name, run in runs.items():
        extra = set(run.missing_ranks) - planned
        if extra:
            violations.append(Violation(
                "survivor_completeness", name,
                f"missing_ranks {sorted(run.missing_ranks)} includes ranks "
                f"never planned to crash: {sorted(extra)}",
                {"missing": sorted(run.missing_ranks),
                 "planned": sorted(planned)},
            ))
        recovery = run.recovery
        if recovery is not None:
            if recovery.get("mode") != scenario.options.on_failure:
                violations.append(Violation(
                    "survivor_completeness", name,
                    f"recovery mode {recovery.get('mode')!r} != requested "
                    f"on_failure {scenario.options.on_failure!r}",
                ))
            if not run.missing_ranks:
                violations.append(Violation(
                    "survivor_completeness", name,
                    "recovery record present but missing_ranks is empty",
                ))
    return violations


def check_crash_agreement(
    scenario: "Scenario", runs: dict[str, "AllgatherRun"]
) -> list[Violation]:
    """Shrink and degrade recoveries are mutual oracles (crash plans).

    Re-runs every algorithm with the *other* ``on_failure`` mode.  Round 0
    is identical by determinism, so both modes see the same first
    detection; after that the recovery paths diverge, but both must end
    with survivor buffers that agree once crashed sources (whose in-flight
    blocks are best-effort) are masked out.
    """
    import dataclasses

    mode = scenario.options.on_failure
    if mode not in ("shrink", "degrade"):
        return []
    flipped = "degrade" if mode == "shrink" else "shrink"
    options = dataclasses.replace(
        scenario.options, on_failure=flipped, trace=False
    )
    plan = scenario.options.fault_plan
    planned = {c.rank for c in plan.crashes} if plan is not None else set()
    violations: list[Violation] = []
    for name, run in runs.items():
        try:
            other = scenario.with_(options=options).spec_for(name).run()
        except Exception as exc:  # noqa: BLE001 - a crash here is a finding
            violations.append(Violation(
                "crash_agreement", name,
                f"{flipped} recovery failed where {mode} succeeded: "
                f"{type(exc).__name__}: {exc}",
            ))
            continue
        if set(other.missing_ranks) - planned:
            violations.append(Violation(
                "crash_agreement", name,
                f"{flipped} recovery lost unplanned ranks "
                f"{sorted(set(other.missing_ranks) - planned)}",
            ))
            continue
        ignore = set(run.missing_ranks) | set(other.missing_ranks)
        for rank in range(len(run.results)):
            if rank in ignore:
                continue
            a = {s: p for s, p in run.results[rank].items() if s not in ignore}
            b = {s: p for s, p in other.results[rank].items() if s not in ignore}
            if a != b:
                violations.append(Violation(
                    "crash_agreement", name,
                    f"rank {rank} survivor buffer differs between {mode} "
                    f"and {flipped}: only-{mode}={sorted(set(a) - set(b))} "
                    f"only-{flipped}={sorted(set(b) - set(a))}",
                    {"rank": rank, "mode": mode, "flipped": flipped},
                ))
                break
    return violations


def check_size_monotonicity(
    scenario: "Scenario", runs: dict[str, "AllgatherRun"]
) -> list[Violation]:
    """Clean scenarios: a strictly smaller message must not take longer.

    Re-runs each algorithm at a quarter of the scalar message size through
    the same spec path.  Skipped for allgatherv block lists (no single
    "smaller size" exists) and for sizes already at 0.
    """
    if not isinstance(scenario.msg_size, int) or scenario.msg_size < 4:
        return []
    smaller = scenario.msg_size // 4
    violations = []
    for name, run in runs.items():
        spec = scenario.with_(msg_size=smaller).spec_for(name)
        try:
            small_run = spec.run()
        except Exception as exc:  # surfaced as its own violation
            violations.append(Violation(
                "size_monotonicity", name,
                f"run at msg_size={smaller} raised {type(exc).__name__}: {exc}",
            ))
            continue
        if small_run.simulated_time > run.simulated_time:
            violations.append(Violation(
                "size_monotonicity", name,
                f"simulated_time({smaller}B) = {small_run.simulated_time:.9g} "
                f"> simulated_time({scenario.msg_size}B) = "
                f"{run.simulated_time:.9g}",
                {"small": small_run.simulated_time, "large": run.simulated_time},
            ))
    return violations


def socket_permutation(n: int, ranks_per_socket: int, seed: int) -> list[int]:
    """A machine-automorphic rank permutation (shuffles within each socket).

    Block placement maps rank ``r`` to socket ``r // ranks_per_socket``, so
    permuting ranks within each block keeps every rank on its socket: link
    classes, and therefore the cost model, are unchanged edge-for-edge.
    """
    import numpy as np

    rng = np.random.default_rng([seed, n, ranks_per_socket])
    perm = list(range(n))
    for lo in range(0, n, ranks_per_socket):
        hi = min(lo + ranks_per_socket, n)
        block = perm[lo:hi]
        rng.shuffle(block)
        perm[lo:hi] = block
    return perm


def relabel_topology(
    topology: "DistGraphTopology", perm: list[int]
) -> "DistGraphTopology":
    """The isomorphic topology with rank ``r`` renamed to ``perm[r]``."""
    from repro.topology.graph import DistGraphTopology

    out: list[list[int]] = [[] for _ in range(topology.n)]
    for u, v in topology.edges():
        out[perm[u]].append(perm[v])
    return DistGraphTopology(topology.n, out)


def check_relabel_conservation(
    scenario: "Scenario",
    topology: "DistGraphTopology",
    runs: dict[str, "AllgatherRun"],
) -> list[Violation]:
    """Within-socket relabeling preserves correctness and naive's traffic.

    Runs naive and distance_halving on the relabeled topology (naive for
    the counter-conservation half, DH because its negotiation is the most
    label-sensitive code path).  See the module docstring for why
    ``simulated_time`` itself is deliberately *not* asserted invariant.
    """
    from repro.collectives.runner import run_allgather

    rps = scenario.machine.ranks_per_socket
    perm = socket_permutation(topology.n, rps, scenario.seed + scenario.iteration)
    if perm == list(range(topology.n)):
        return []
    relabeled = relabel_topology(topology, perm)
    machine = scenario.machine.build()
    msg = (
        list(scenario.msg_size) if isinstance(scenario.msg_size, tuple)
        else scenario.msg_size
    )
    violations: list[Violation] = []
    for name in ("naive", "distance_halving"):
        base = runs.get(name)
        if base is None:
            continue
        if isinstance(msg, list):
            # allgatherv: block_sizes[r] travels with the *rank*, so the
            # relabeled run needs the permuted size list to stay isomorphic.
            msg_for = [0] * len(msg)
            for r, size in enumerate(msg):
                msg_for[perm[r]] = size
        else:
            msg_for = msg
        try:
            run = run_allgather(name, relabeled, machine, msg_for,
                                options=scenario.options)
            verify_allgather(relabeled, run)
        except VerificationError as exc:
            violations.append(Violation(
                "relabel_conservation", name,
                f"relabeled topology fails verification: {exc}", exc.as_dict(),
            ))
            continue
        except Exception as exc:
            violations.append(Violation(
                "relabel_conservation", name,
                f"relabeled run raised {type(exc).__name__}: {exc}",
            ))
            continue
        if name != "naive":
            continue
        # Naive sends exactly one message per topology edge, so its totals
        # and per-class composition are functions of the (class-preserving)
        # edge multiset — exactly conserved under the permutation.
        if (run.messages_sent, run.bytes_sent) != (base.messages_sent,
                                                   base.bytes_sent):
            violations.append(Violation(
                "relabel_conservation", name,
                f"naive totals changed under relabeling: "
                f"({base.messages_sent} msgs, {base.bytes_sent} B) -> "
                f"({run.messages_sent} msgs, {run.bytes_sent} B)",
            ))
        if base.trace_summary is not None and run.trace_summary is not None:
            for cls in base.trace_summary:
                a = base.trace_summary[cls]
                b = run.trace_summary[cls]
                if (a["messages"], a["bytes"]) != (b["messages"], b["bytes"]):
                    violations.append(Violation(
                        "relabel_conservation", name,
                        f"naive {cls} aggregate changed under relabeling: "
                        f"{a['messages']} msgs/{a['bytes']} B -> "
                        f"{b['messages']} msgs/{b['bytes']} B",
                    ))
    return violations


def check_hybrid_equivalence(
    scenario: "Scenario",
    runs: dict[str, "AllgatherRun"],
) -> list[Violation]:
    """The hybrid fast path is a mutual oracle for the DES (and vice versa).

    Every clean trial is re-run with ``sim_mode="auto"``, which replays the
    schedule exactly (or falls back to the DES): the run must be
    *bit-identical* to the DES in simulated time, per-rank finish times,
    message/byte counters, and delivered buffers.
    """
    import dataclasses

    from repro.exec.spec import RunSpec

    options = dataclasses.replace(
        scenario.options, trace=False, sim_mode="auto",
    )
    violations: list[Violation] = []
    for name, run in runs.items():
        if getattr(run, "fallback_used", False):
            continue
        try:
            auto = RunSpec(
                algorithm=name,
                topology=scenario.topology,
                machine=scenario.machine,
                msg_size=scenario.msg_size,
                options=options,
            ).run()
        except Exception as exc:  # noqa: BLE001 - a crash here is a finding
            violations.append(Violation(
                "hybrid_equivalence", name,
                f"sim_mode='auto' execution failed where the DES succeeded: "
                f"{type(exc).__name__}: {exc}",
            ))
            continue
        if (
            auto.messages_sent != run.messages_sent
            or auto.bytes_sent != run.bytes_sent
            or auto.results != run.results
        ):
            violations.append(Violation(
                "hybrid_equivalence", name,
                f"auto path changed observable outputs (sim_path="
                f"{auto.sim_path}): messages {auto.messages_sent} vs "
                f"{run.messages_sent}, bytes {auto.bytes_sent} vs "
                f"{run.bytes_sent}, results equal: "
                f"{auto.results == run.results}",
            ))
            continue
        if (
            auto.simulated_time != run.simulated_time
            or auto.finish_times != run.finish_times
        ):
            violations.append(Violation(
                "hybrid_equivalence", name,
                f"auto must replay bit-identically: "
                f"auto {auto.simulated_time!r} vs des {run.simulated_time!r}, "
                f"finish times equal: {auto.finish_times == run.finish_times}",
                data={"auto": auto.simulated_time, "des": run.simulated_time},
            ))
    return violations


def check_payload_independence(
    scenario: "Scenario",
    topology: "DistGraphTopology",
    runs: dict[str, "AllgatherRun"],
) -> list[Violation]:
    """Payloads are opaque: permuting payload *values* changes no timing.

    Reruns distance_halving (the algorithm whose buffer packing is most
    involved) with reversed payload objects and demands bit-identical
    simulated time and counters, plus correct delivery of the new objects.
    """
    from repro.collectives.runner import run_allgather

    base = runs.get("distance_halving")
    if base is None:
        return []
    payloads = [f"blk{topology.n - 1 - r}" for r in range(topology.n)]
    machine = scenario.machine.build()
    msg = (
        list(scenario.msg_size) if isinstance(scenario.msg_size, tuple)
        else scenario.msg_size
    )
    try:
        run = run_allgather("distance_halving", topology, machine, msg,
                            options=scenario.options, payloads=payloads)
        verify_allgather(topology, run, expected_payloads=payloads)
    except VerificationError as exc:
        return [Violation(
            "payload_independence", "distance_halving",
            f"permuted payloads misdelivered: {exc}", exc.as_dict(),
        )]
    except Exception as exc:
        return [Violation(
            "payload_independence", "distance_halving",
            f"permuted-payload run raised {type(exc).__name__}: {exc}",
        )]
    violations = []
    if run.simulated_time != base.simulated_time:
        violations.append(Violation(
            "payload_independence", "distance_halving",
            f"simulated_time depends on payload values: "
            f"{base.simulated_time:.9g} -> {run.simulated_time:.9g}",
        ))
    if (run.messages_sent, run.bytes_sent) != (base.messages_sent,
                                               base.bytes_sent):
        violations.append(Violation(
            "payload_independence", "distance_halving",
            f"traffic depends on payload values: "
            f"({base.messages_sent}, {base.bytes_sent}) -> "
            f"({run.messages_sent}, {run.bytes_sent})",
        ))
    if run.trace_summary != base.trace_summary:
        violations.append(Violation(
            "payload_independence", "distance_halving",
            "per-class trace aggregates depend on payload values",
        ))
    return violations


def check_dh_structure(
    scenario: "Scenario", topology: "DistGraphTopology"
) -> list[Violation]:
    """Structural invariants of the Distance Halving pattern itself.

    Pattern construction is deterministic (greedy selection), so the
    pattern checked here is the one the differential run executed.
    """
    from repro.collectives.distance_halving.builder import (
        build_patterns,
        check_pattern,
        halving_levels,
    )

    machine = scenario.machine.build()
    violations: list[Violation] = []

    def bad(detail: str, **data: Any) -> None:
        violations.append(Violation("dh_structure", "distance_halving",
                                    detail, data))

    try:
        pattern = build_patterns(topology, machine)
    except Exception as exc:
        bad(f"build_patterns raised {type(exc).__name__}: {exc}")
        return violations
    try:
        check_pattern(topology, pattern)
    except AssertionError as exc:
        bad(f"exactly-once delivery violated: {exc}")

    levels = halving_levels(topology.n, pattern.ranks_per_socket)
    # The geometry itself, independently of the builder: each split halves
    # an interval of more than L ranks at the paper's midpoint.
    for index, level in enumerate(levels):
        for (lo, cut), (upper_lo, hi) in level:
            if not (cut == upper_lo and lo < cut < hi
                    and cut - 1 == (lo + hi - 1) // 2
                    and hi - lo > pattern.ranks_per_socket):
                bad(f"level {index} splits [{lo},{hi}) into [{lo},{cut}) + "
                    f"[{upper_lo},{hi}), not just after the paper's midpoint "
                    f"{(lo + hi - 1) // 2} of an interval of more than "
                    f"L={pattern.ranks_per_socket} ranks")
    split_at = [
        {r: split for split in level for r in range(split[0][0], split[1][1])}
        for level in levels
    ]

    for rp in pattern.ranks:
        seen_levels: set[int] = set()
        for step in rp.steps:
            if step.index in seen_levels:
                bad(f"rank {rp.rank} has two steps at level {step.index}")
                continue
            seen_levels.add(step.index)
            if step.index >= len(levels):
                bad(f"rank {rp.rank} has a step at level {step.index} but "
                    f"halving stops after {len(levels)} level(s)")
                continue
            split = split_at[step.index].get(rp.rank)
            if split is None:
                bad(f"rank {rp.rank} stepped at level {step.index}, where "
                    "its interval no longer splits")
                continue
            (lo, cut), (_, hi) = split  # halves [lo, cut) and [cut, hi)
            in_lower = rp.rank < cut
            for role, peer in (("agent", step.agent), ("origin", step.origin)):
                if peer is None:
                    continue
                if not lo <= peer < hi:
                    bad(f"rank {rp.rank} level {step.index}: {role} {peer} "
                        f"outside interval [{lo},{hi})")
                elif (peer < cut) == in_lower:
                    bad(f"rank {rp.rank} level {step.index}: {role} {peer} "
                        f"is in the same half of [{lo},{cut})+[{cut},{hi}) — "
                        "agents must live in the opposite half")
            if step.origin is not None:
                # recv_for_me must name blocks actually present in the
                # incoming buffer and correspond to real topology edges.
                blocks = set(step.recv_blocks)
                for src in step.recv_for_me:
                    if src not in blocks:
                        bad(f"rank {rp.rank} level {step.index}: recv_for_me "
                            f"source {src} not in recv_blocks")
                    elif not topology.has_edge(src, rp.rank):
                        bad(f"rank {rp.rank} level {step.index}: recv_for_me "
                            f"delivers non-edge ({src}, {rp.rank})")
            if step.agent is not None and step.send_block_count < 1:
                bad(f"rank {rp.rank} level {step.index}: sends to agent "
                    f"{step.agent} with empty main_buf")
        if rp.self_copy != topology.has_edge(rp.rank, rp.rank):
            bad(f"rank {rp.rank}: self_copy={rp.self_copy} but topology "
                f"self-loop={topology.has_edge(rp.rank, rp.rank)}")

    # Agent/origin links must be symmetric across rank patterns.
    for rp in pattern.ranks:
        for step in rp.steps:
            if step.agent is not None:
                peer_steps = {
                    s.index: s for s in pattern[step.agent].steps
                }
                peer = peer_steps.get(step.index)
                if peer is None or peer.origin != rp.rank:
                    bad(f"rank {rp.rank} level {step.index}: agent "
                        f"{step.agent} does not record {rp.rank} as origin")
                elif len(peer.recv_blocks) != step.send_block_count:
                    bad(f"rank {rp.rank} level {step.index}: sent "
                        f"{step.send_block_count} blocks but agent "
                        f"{step.agent} records {len(peer.recv_blocks)}")
    return violations


def check_auto_selection(
    scenario: "Scenario",
    topology: "DistGraphTopology",
    runs: dict[str, "AllgatherRun"],
) -> list[Violation]:
    """``algorithm="auto"`` picks a legal, survivable, correct candidate.

    The time-equality half fires only when the selection's constructor
    kwargs are the candidate's defaults (what the differential runs used)
    and the directly-named run did not itself degrade — then the auto run
    must be bit-identical in cost to that run.
    """
    import inspect

    from repro.collectives.base import algorithm_info
    from repro.select import candidates_for, extract_features, select

    violations: list[Violation] = []
    try:
        run = scenario.spec_for("auto").run()
    except Exception as exc:  # noqa: BLE001 - a dead auto run is a finding
        return [Violation(
            "auto_selection", None,
            f"auto run raised {type(exc).__name__}: {exc}",
        )]
    features = extract_features(
        topology, scenario.machine, scenario.msg_size, scenario.options
    )
    allowed = candidates_for(features.fault)
    if run.selected_algorithm not in allowed:
        violations.append(Violation(
            "auto_selection", run.selected_algorithm,
            f"selected {run.selected_algorithm!r} outside the fault class "
            f"{features.fault!r} candidate set {allowed}",
        ))
    if run.fallback_used:
        violations.append(Violation(
            "auto_selection", run.selected_algorithm,
            f"auto pick {run.requested_algorithm!r} was not survivable: the "
            f"run degraded to {run.algorithm!r} — the survivability walk "
            "should have rejected it",
        ))
    try:
        verify_allgather(topology, run, allow_missing=run.missing_ranks)
    except VerificationError as exc:
        violations.append(Violation(
            "auto_selection", run.selected_algorithm,
            f"auto run fails the MPI post-condition: {exc}", exc.as_dict(),
        ))
    base = runs.get(run.selected_algorithm or "")
    if base is not None and not base.fallback_used and not run.fallback_used:
        selection = select(
            topology, scenario.machine.build(), scenario.msg_size,
            scenario.options,
        )
        sig = inspect.signature(algorithm_info(selection.algorithm).cls.__init__)
        defaults = all(
            k in sig.parameters and sig.parameters[k].default == v
            for k, v in selection.kwargs
        )
        if defaults and run.simulated_time != base.simulated_time:
            violations.append(Violation(
                "auto_selection", run.selected_algorithm,
                f"auto run of {run.selected_algorithm!r} cost "
                f"{run.simulated_time!r} but the directly-named run cost "
                f"{base.simulated_time!r} (must be bit-identical)",
                {"auto": run.simulated_time, "named": base.simulated_time},
            ))
    return violations


# --------------------------------------------------------------------------
# dispatcher
# --------------------------------------------------------------------------

def run_invariants(
    scenario: "Scenario",
    topology: "DistGraphTopology",
    runs: dict[str, "AllgatherRun"],
    *,
    metamorphic: bool = True,
) -> list[Violation]:
    """Run the applicable battery on one trial's runs.

    ``metamorphic=False`` restricts to the checks that need no extra
    simulations (used by the shrinker, where each candidate is re-executed
    many times and the failure signature is already known).
    """
    plan = scenario.options.fault_plan
    clean = plan is None
    crashy = plan is not None and bool(plan.crashes)
    violations: list[Violation] = []
    violations += check_payload_equivalence(topology, runs)
    violations += check_cross_algorithm(runs)
    violations += check_trace_conservation(scenario, runs)
    if crashy:
        violations += check_survivor_completeness(scenario, runs)
    if "distance_halving" in runs and not runs["distance_halving"].fallback_used:
        violations += check_dh_structure(scenario, topology)
    if metamorphic and crashy:
        violations += check_crash_agreement(scenario, runs)
    if metamorphic:
        # every profile: the adaptive selector must behave under clean,
        # perturbed, and crash plans alike
        violations += check_auto_selection(scenario, topology, runs)
    if metamorphic and clean:
        violations += check_size_monotonicity(scenario, runs)
        violations += check_relabel_conservation(scenario, topology, runs)
        violations += check_payload_independence(scenario, topology, runs)
        violations += check_hybrid_equivalence(scenario, runs)
    return violations


def assert_invariants(
    scenario: "Scenario",
    topology: "DistGraphTopology",
    runs: dict[str, "AllgatherRun"],
) -> None:
    """Raise :class:`InvariantViolation` if any check fails (pytest sugar)."""
    violations = run_invariants(scenario, topology, runs)
    if violations:
        raise InvariantViolation(scenario, violations)
