"""Seeded, deterministic fault injection for the simulator.

The paper's robustness corollary — Distance Halving sends *fewer,
better-placed* messages, so it should degrade more gracefully than the
naive algorithm under link jitter, stragglers, and message loss — is only
testable if failures can be injected *reproducibly*.  This module provides
the spec layer for that: a :class:`FaultPlan` is immutable data describing
what goes wrong and when, and a :class:`FaultInjector` is the per-run
runtime companion holding the resolved RNG stream and mutable counters.

Determinism contract
--------------------
All fault randomness flows through :func:`repro.utils.rng.resolve_rng`
seeded by ``FaultPlan.seed``, and draws happen in engine event order (one
draw per transmission attempt of a message that a loss spec covers).  The
engine's event order is itself deterministic and unaffected by tracing, so
the same ``(seed, FaultPlan)`` pair yields bit-identical simulated times
and identical drop/retry counters across runs and across ``trace=True`` /
``trace=False``.

A plan whose specs are all no-ops (unit factors, zero probabilities, unit
compute factors, zero delays) is a *strict* no-op: the fault-aware transmit
path multiplies nothing and draws nothing, so simulated times are
bit-identical to a run with no plan at all (pinned by the golden-grid
regression test).

Failure semantics
-----------------
* :class:`LinkFault` — multiplicative latency (``alpha_factor``, also
  applied to the per-hop surcharge) and bandwidth (``beta_factor``)
  degradation for one link class (or all) over a simulated-time window.
* :class:`Straggler` — one rank launches ``startup_delay`` seconds late,
  and the compute/memcpy conditions it *yields* (``comm.compute``,
  ``comm.memcpy``) are scaled by ``compute_factor``.  The collectives'
  generic rank program charges its memcpys and call overheads inline and
  yields none, so ``compute_factor`` changes no allgather's time: a
  straggler there is a late starter only.
* :class:`MessageLoss` — each covered transmission attempt is dropped with
  the given probability.  Drops are detected by the sender via an ack
  timeout and retransmitted under the plan's :class:`RetryPolicy`; every
  attempt (including dropped ones) claims the full resource pipeline, so
  retransmission costs are charged in simulated time.  A message whose
  retry budget is exhausted is *lost*: it never arrives, and the run fails
  loudly (``DeadlockError`` once the event heap drains, or
  ``SimTimeoutError`` if a watchdog budget trips first).
* :class:`RankCrash` — fail-stop death of one rank at a simulated time.
  The engine kills the rank's generator at its first event at or after the
  crash time, drops its in-flight sends whose arrival postdates the crash,
  and never delivers anything from it again.  When the surviving ranks
  stall waiting on a dead peer, a :class:`FailureDetector` (heartbeat
  interval + suspicion timeout, both charged in simulated time) converts
  the would-be deadlock into a structured
  :class:`~repro.sim.engine.RankFailedError`; without a detector the run
  fails with ``DeadlockError`` as before.
* Setup feasibility — pattern setup (the ``MPI_Dist_graph_create_adjacent``
  negotiation) is priced analytically, before simulated time 0, so loss
  windows do not apply to it; only the plan's *peak* loss probability
  does.  :meth:`FaultPlan.setup_survivable` declares a setup infeasible
  when the expected number of permanently lost control messages reaches 1;
  :func:`~repro.collectives.runner.run_allgather` can then gracefully
  degrade to a setup-free algorithm
  (``fallback=repro.collectives.base.SETUP_FREE_FALLBACK``).
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass, field

from repro.cluster.spec import LinkClass
from repro.utils.rng import resolve_rng


def _check_window(start: float, end: float) -> None:
    if start < 0:
        raise ValueError(f"window start must be >= 0, got {start}")
    if end < start:
        raise ValueError(f"window end {end} precedes start {start}")


@dataclass(frozen=True)
class LinkFault:
    """Latency/bandwidth degradation for one link class over a time window.

    ``link_class=None`` covers every class.  ``alpha_factor`` multiplies the
    per-message startup latency (and the routing hop surcharge);
    ``beta_factor`` scales bandwidth (0.5 = links run at half speed).
    """

    link_class: LinkClass | None = None
    alpha_factor: float = 1.0
    beta_factor: float = 1.0
    start: float = 0.0
    end: float = math.inf

    def __post_init__(self) -> None:
        if self.alpha_factor <= 0:
            raise ValueError(f"alpha_factor must be > 0, got {self.alpha_factor}")
        if self.beta_factor <= 0:
            raise ValueError(f"beta_factor must be > 0, got {self.beta_factor}")
        _check_window(self.start, self.end)

    @property
    def is_noop(self) -> bool:
        return self.alpha_factor == 1.0 and self.beta_factor == 1.0

    def covers(self, link_class: LinkClass, time: float) -> bool:
        return (self.link_class is None or self.link_class is link_class) and \
            self.start <= time < self.end


@dataclass(frozen=True)
class Straggler:
    """One rank that starts late and/or computes slowly.

    ``startup_delay`` holds the rank back at launch.  ``compute_factor``
    scales only the compute/memcpy conditions the rank's program yields;
    the allgather backends yield none (their generic program charges
    memcpys and call overheads inline), so on them it has no effect.
    """

    rank: int
    compute_factor: float = 1.0
    startup_delay: float = 0.0

    def __post_init__(self) -> None:
        if self.rank < 0:
            raise ValueError(f"rank must be >= 0, got {self.rank}")
        if self.compute_factor <= 0:
            raise ValueError(f"compute_factor must be > 0, got {self.compute_factor}")
        if self.startup_delay < 0:
            raise ValueError(f"startup_delay must be >= 0, got {self.startup_delay}")

    @property
    def is_noop(self) -> bool:
        return self.compute_factor == 1.0 and self.startup_delay == 0.0


@dataclass(frozen=True)
class MessageLoss:
    """Probabilistic drop of transmission attempts over a time window."""

    probability: float
    link_class: LinkClass | None = None
    start: float = 0.0
    end: float = math.inf

    def __post_init__(self) -> None:
        if not 0.0 <= self.probability <= 1.0:
            raise ValueError(f"probability must be in [0, 1], got {self.probability}")
        _check_window(self.start, self.end)

    @property
    def is_noop(self) -> bool:
        return self.probability == 0.0

    def covers(self, link_class: LinkClass, time: float) -> bool:
        return (self.link_class is None or self.link_class is link_class) and \
            self.start <= time < self.end


@dataclass(frozen=True)
class RankCrash:
    """Fail-stop death of one rank at a simulated time.

    The rank executes normally until ``time``; its first engine event at or
    after that instant kills it instead of resuming it.  A crash time past
    the rank's natural finish is a no-op for that rank.
    """

    rank: int
    time: float = 0.0

    def __post_init__(self) -> None:
        if self.rank < 0:
            raise ValueError(f"rank must be >= 0, got {self.rank}")
        if not self.time >= 0.0:
            raise ValueError(f"crash time must be >= 0, got {self.time}")


@dataclass(frozen=True)
class FailureDetector:
    """Timeout-based failure detection, charged in simulated time.

    Survivors notice a dead peer after missing heartbeats: detection
    completes ``heartbeat_interval + suspicion_timeout`` seconds after the
    crash (or after the survivors stall, whichever is later).  The engine
    raises :class:`~repro.sim.engine.RankFailedError` at that instant
    instead of deadlocking.
    """

    heartbeat_interval: float = 100e-6
    suspicion_timeout: float = 400e-6

    def __post_init__(self) -> None:
        if self.heartbeat_interval <= 0:
            raise ValueError(
                f"heartbeat_interval must be > 0, got {self.heartbeat_interval}")
        if self.suspicion_timeout <= 0:
            raise ValueError(
                f"suspicion_timeout must be > 0, got {self.suspicion_timeout}")

    @property
    def detection_lag(self) -> float:
        """Sim-time between a crash (or stall) and its notification."""
        return self.heartbeat_interval + self.suspicion_timeout


@dataclass(frozen=True)
class RetryPolicy:
    """Ack-timeout + exponential-backoff retransmission.

    Attempt ``k`` (1-based) that is dropped is retransmitted
    ``timeout * backoff**(k-1)`` seconds after its send completed; after
    ``max_retries`` retransmissions the message is declared lost.
    """

    timeout: float = 100e-6
    backoff: float = 2.0
    max_retries: int = 5

    def __post_init__(self) -> None:
        if self.timeout <= 0:
            raise ValueError(f"timeout must be > 0, got {self.timeout}")
        if self.backoff < 1.0:
            raise ValueError(f"backoff must be >= 1, got {self.backoff}")
        if self.max_retries < 0:
            raise ValueError(f"max_retries must be >= 0, got {self.max_retries}")

    def delay_after(self, attempt: int) -> float:
        """Backoff delay charged after dropped attempt ``attempt`` (1-based)."""
        return self.timeout * self.backoff ** (attempt - 1)


@dataclass(frozen=True)
class FaultPlan:
    """A composable, immutable description of everything that goes wrong.

    Construct directly or via :func:`resilience_profiles`; pass to
    :func:`~repro.collectives.runner.run_allgather` (``fault_plan=``) or
    :class:`~repro.sim.engine.Engine` (``faults=``).
    """

    link_faults: tuple[LinkFault, ...] = ()
    stragglers: tuple[Straggler, ...] = ()
    losses: tuple[MessageLoss, ...] = ()
    retry: RetryPolicy = field(default_factory=RetryPolicy)
    seed: int = 0
    crashes: tuple[RankCrash, ...] = ()
    #: Installed by default so crash plans fail loudly instead of hanging;
    #: irrelevant (and never consulted) when ``crashes`` is empty.  Set to
    #: ``None`` to model a system with no failure detection (crashes then
    #: surface as ``DeadlockError``).
    detector: FailureDetector | None = field(default_factory=FailureDetector)

    def __post_init__(self) -> None:
        seen = set()
        for s in self.stragglers:
            if s.rank in seen:
                raise ValueError(f"duplicate straggler spec for rank {s.rank}")
            seen.add(s.rank)
        seen = set()
        for c in self.crashes:
            if c.rank in seen:
                raise ValueError(f"duplicate crash spec for rank {c.rank}")
            seen.add(c.rank)

    def is_noop(self) -> bool:
        """True when the plan perturbs nothing (strict no-op guarantee)."""
        return (
            not self.crashes
            and all(f.is_noop for f in self.link_faults)
            and all(s.is_noop for s in self.stragglers)
            and all(l.is_noop for l in self.losses)
        )

    def peak_loss_probability(self) -> float:
        """Worst per-attempt drop probability across all loss specs."""
        return max((l.probability for l in self.losses), default=0.0)

    def setup_survivable(self, control_messages: int) -> bool:
        """Can a ``control_messages``-message setup negotiation complete?

        Setup runs before simulated time 0 and is priced analytically, so
        windows do not apply; the plan's peak loss probability does.  A
        message survives unless all ``max_retries + 1`` attempts drop, so
        the expected number of permanently lost control messages is
        ``N * p**(max_retries+1)``; once that reaches 1 the multi-round
        negotiation is declared unable to converge.
        """
        if control_messages <= 0:
            return True
        p = self.peak_loss_probability()
        if p == 0.0:
            return True
        return control_messages * p ** (self.retry.max_retries + 1) < 1.0

    def describe(self) -> str:
        parts = []
        if self.link_faults:
            parts.append(f"{len(self.link_faults)} link fault(s)")
        if self.stragglers:
            parts.append(f"{len(self.stragglers)} straggler(s)")
        if self.losses:
            parts.append(f"loss p<={self.peak_loss_probability():g}")
        if self.crashes:
            parts.append(f"{len(self.crashes)} crash(es)")
        return "clean" if not parts else ", ".join(parts)

    def shrink(self, survivors: "Sequence[int]", offset: float) -> "FaultPlan":
        """The plan seen by a recovery round over the compacted survivors.

        ``survivors`` are original rank ids in ascending order; survivor
        ``survivors[i]`` becomes rank ``i`` of the shrunk communicator.
        ``offset`` is the simulated time already elapsed (crash detection
        included): time windows shift left by it, specs whose windows land
        entirely in the past are dropped, and pending crashes of surviving
        ranks fire at ``max(0, time - offset)``.  Startup delays were paid
        in the original round and do not recur; compute factors persist
        (slow hardware stays slow).  Retry policy, seed, and detector carry
        over unchanged.
        """
        remap = {orig: new for new, orig in enumerate(survivors)}
        alive = set(survivors)

        def shift_window(spec):
            start = max(0.0, spec.start - offset)
            end = spec.end if spec.end == math.inf else spec.end - offset
            if end <= 0.0 and not (spec.start == spec.end == 0.0):
                return None  # window entirely in the past
            return start, max(end, start)

        link_faults = []
        for f in self.link_faults:
            win = shift_window(f)
            if win is not None:
                link_faults.append(
                    LinkFault(link_class=f.link_class, alpha_factor=f.alpha_factor,
                              beta_factor=f.beta_factor, start=win[0], end=win[1]))
        losses = []
        for l in self.losses:
            win = shift_window(l)
            if win is not None:
                losses.append(
                    MessageLoss(probability=l.probability, link_class=l.link_class,
                                start=win[0], end=win[1]))
        stragglers = tuple(
            Straggler(rank=remap[s.rank], compute_factor=s.compute_factor)
            for s in self.stragglers
            if s.rank in alive and s.compute_factor != 1.0
        )
        crashes = tuple(
            RankCrash(rank=remap[c.rank], time=max(0.0, c.time - offset))
            for c in self.crashes
            if c.rank in alive
        )
        return FaultPlan(
            link_faults=tuple(link_faults),
            stragglers=stragglers,
            losses=tuple(losses),
            retry=self.retry,
            seed=self.seed,
            crashes=crashes,
            detector=self.detector,
        )

    # ------------------------------------------------------------- (de)serde
    def to_dict(self) -> dict:
        """Canonical JSON-safe form (used by :mod:`repro.exec` spec digests).

        ``math.inf`` windows serialize as the string ``"inf"`` so the output
        round-trips through strict JSON encoders.  ``crashes`` and
        ``detector`` are emitted only when they differ from their defaults,
        so digests computed before fail-stop faults existed (and the cached
        results they address) remain valid.
        """
        def window(x: float) -> float | str:
            return "inf" if x == math.inf else x

        out = {
            "link_faults": [
                {
                    "link_class": f.link_class.name if f.link_class else None,
                    "alpha_factor": f.alpha_factor,
                    "beta_factor": f.beta_factor,
                    "start": f.start,
                    "end": window(f.end),
                }
                for f in self.link_faults
            ],
            "stragglers": [
                {
                    "rank": s.rank,
                    "compute_factor": s.compute_factor,
                    "startup_delay": s.startup_delay,
                }
                for s in self.stragglers
            ],
            "losses": [
                {
                    "probability": l.probability,
                    "link_class": l.link_class.name if l.link_class else None,
                    "start": l.start,
                    "end": window(l.end),
                }
                for l in self.losses
            ],
            "retry": {
                "timeout": self.retry.timeout,
                "backoff": self.retry.backoff,
                "max_retries": self.retry.max_retries,
            },
            "seed": self.seed,
        }
        if self.crashes:
            out["crashes"] = [
                {"rank": c.rank, "time": c.time} for c in self.crashes
            ]
        if self.detector != FailureDetector():
            out["detector"] = (
                None if self.detector is None else {
                    "heartbeat_interval": self.detector.heartbeat_interval,
                    "suspicion_timeout": self.detector.suspicion_timeout,
                }
            )
        return out

    @classmethod
    def from_dict(cls, data: dict) -> "FaultPlan":
        """Inverse of :meth:`to_dict` (exact round-trip)."""
        def window(x) -> float:
            return math.inf if x == "inf" else float(x)

        def link(name) -> LinkClass | None:
            return LinkClass[name] if name is not None else None

        return cls(
            link_faults=tuple(
                LinkFault(
                    link_class=link(f["link_class"]),
                    alpha_factor=f["alpha_factor"],
                    beta_factor=f["beta_factor"],
                    start=f["start"],
                    end=window(f["end"]),
                )
                for f in data.get("link_faults", ())
            ),
            stragglers=tuple(
                Straggler(**s) for s in data.get("stragglers", ())
            ),
            losses=tuple(
                MessageLoss(
                    probability=l["probability"],
                    link_class=link(l["link_class"]),
                    start=l["start"],
                    end=window(l["end"]),
                )
                for l in data.get("losses", ())
            ),
            retry=RetryPolicy(**data["retry"]) if "retry" in data else RetryPolicy(),
            seed=data.get("seed", 0),
            crashes=tuple(
                RankCrash(**c) for c in data.get("crashes", ())
            ),
            detector=(
                FailureDetector()
                if "detector" not in data
                else None
                if data["detector"] is None
                else FailureDetector(**data["detector"])
            ),
        )


class FaultInjector:
    """Per-run runtime state for one :class:`FaultPlan`.

    Holds the resolved RNG stream and the mutable counters; one injector
    must never be shared across engine runs (counters and the RNG stream
    are run-local state).
    """

    __slots__ = (
        "plan",
        "rng",
        "retry",
        "detector",
        "crash_times",
        "drops",
        "retransmissions",
        "messages_lost",
        "rank_crashes",
        "crash_dropped",
        "_link_faults",
        "_losses",
        "_compute_factor",
        "_startup_delay",
    )

    def __init__(self, plan: FaultPlan):
        self.plan = plan
        self.rng = resolve_rng(plan.seed)
        self.retry = plan.retry
        self.detector = plan.detector
        #: rank -> fail-stop instant, consulted by the engine at every resume
        self.crash_times = {c.rank: c.time for c in plan.crashes}
        # Counters (read by AllgatherRun.fault_stats and the benches).
        self.drops = 0             #: dropped transmission attempts
        self.retransmissions = 0   #: extra attempts beyond the first
        self.messages_lost = 0     #: messages whose retry budget ran out
        self.rank_crashes = 0      #: ranks actually killed (crash time reached)
        self.crash_dropped = 0     #: in-flight sends dropped by a sender crash
        # Pre-filter no-op specs so the strict-no-op guarantee costs nothing
        # per message and a zero-probability loss spec never touches the RNG.
        self._link_faults = tuple(f for f in plan.link_faults if not f.is_noop)
        self._losses = tuple(l for l in plan.losses if not l.is_noop)
        self._compute_factor = {
            s.rank: s.compute_factor for s in plan.stragglers if s.compute_factor != 1.0
        }
        self._startup_delay = {
            s.rank: s.startup_delay for s in plan.stragglers if s.startup_delay > 0.0
        }

    # ----------------------------------------------------------------- fabric
    def perturb(
        self,
        link_class: LinkClass,
        time: float,
        alpha: float,
        hop_extra: float,
        inv_beta: float,
        link_inv_beta: float,
    ) -> tuple[float, float, float, float]:
        """Apply active link degradations to one attempt's cost inputs.

        Returns the inputs unchanged (bit-identical floats) when no
        non-trivial fault covers ``(link_class, time)``.
        """
        for f in self._link_faults:
            if f.covers(link_class, time):
                af = f.alpha_factor
                if af != 1.0:
                    alpha *= af
                    hop_extra *= af
                bf = f.beta_factor
                if bf != 1.0:
                    inv_beta /= bf
                    link_inv_beta /= bf
        return alpha, hop_extra, inv_beta, link_inv_beta

    def should_drop(self, link_class: LinkClass, time: float) -> bool:
        """One drop decision for one transmission attempt.

        Independent loss specs compose: the attempt survives only if it
        survives every covering spec.  Exactly one RNG draw is made per
        attempt that at least one spec covers — attempts nothing covers
        leave the stream untouched.
        """
        survive = 1.0
        for l in self._losses:
            if l.covers(link_class, time):
                survive *= 1.0 - l.probability
        if survive == 1.0:
            return False
        return float(self.rng.random()) >= survive

    # ----------------------------------------------------------------- engine
    def compute_factor(self, rank: int) -> float:
        return self._compute_factor.get(rank, 1.0)

    def startup_delay(self, rank: int) -> float:
        return self._startup_delay.get(rank, 0.0)

    @property
    def has_stragglers(self) -> bool:
        return bool(self._compute_factor or self._startup_delay)

    def stats(self) -> dict[str, int]:
        """Counter snapshot for run reports."""
        out = {
            "drops": self.drops,
            "retransmissions": self.retransmissions,
            "messages_lost": self.messages_lost,
        }
        # Crash counters appear only under crash plans so fault_stats of
        # pre-existing (crash-free) runs — and their golden pins — are
        # byte-identical to before fail-stop faults existed.
        if self.crash_times:
            out["rank_crashes"] = self.rank_crashes
            out["crash_dropped"] = self.crash_dropped
        return out


#: Profile names offered by the CLI and the resilience bench, in report order.
PROFILE_NAMES = (
    "clean", "jitter", "straggler", "lossy", "setup_loss",
    "crash", "crash_recover",
)

#: Recovery policy the bench/CLI pair with each crash profile: ``crash``
#: exercises the setup-free degrade path, ``crash_recover`` the full
#: communicator-shrink replan.  Non-crash profiles are absent (callers fall
#: back to the ``"abort"`` default).
CRASH_PROFILE_MODES = {"crash": "degrade", "crash_recover": "shrink"}


def resilience_profiles(n_ranks: int, seed: int = 0) -> dict[str, FaultPlan | None]:
    """The named fault profiles of the per-algorithm resilience study.

    ``clean`` maps to ``None`` (no injector installed at all — the true
    baseline).  The others are scaled to ``n_ranks`` where they need a
    concrete rank (stragglers) and are deterministic given ``seed``.
    """
    if n_ranks <= 0:
        raise ValueError(f"n_ranks must be > 0, got {n_ranks}")
    straggler_ranks = sorted({n_ranks // 3, (2 * n_ranks) // 3})
    # Crash ranks/times are deterministic in n_ranks alone; the times are
    # chosen inside the makespan of the bench's small cells so the crashes
    # actually fire (a crash past the natural finish is a no-op).
    crash_ranks = sorted({n_ranks // 4, (3 * n_ranks) // 4})
    crash_specs = tuple(
        RankCrash(rank=r, time=4e-6 * (i + 1))
        for i, r in enumerate(crash_ranks)
    )
    return {
        # Degraded fabric: all classes mildly slower, the global links
        # heavily so for the first 500us (a transient congestion burst).
        "jitter": FaultPlan(
            link_faults=(
                LinkFault(alpha_factor=2.0, beta_factor=0.8),
                LinkFault(
                    link_class=LinkClass.INTER_GROUP,
                    alpha_factor=4.0,
                    beta_factor=0.4,
                    end=500e-6,
                ),
            ),
            seed=seed,
        ),
        # Two late ranks — the paper's load-imbalance story under a
        # compute-side perturbation.  ``compute_factor`` is set, but the
        # allgather backends yield no compute, so only the startup delay
        # changes their times.
        "straggler": FaultPlan(
            stragglers=tuple(
                Straggler(rank=r, compute_factor=8.0, startup_delay=150e-6)
                for r in straggler_ranks
            ),
            seed=seed,
        ),
        # 5% attempt loss everywhere; the retry budget makes permanent
        # loss astronomically unlikely (p^7 per message), so runs complete
        # and the cost shows up as retransmissions + backoff.
        "lossy": FaultPlan(
            losses=(MessageLoss(probability=0.05),),
            retry=RetryPolicy(timeout=50e-6, backoff=2.0, max_retries=6),
            seed=seed,
        ),
        # Control-plane blackout during pattern negotiation only: the loss
        # window is empty at runtime (start == end == 0) but the peak
        # probability marks any setup needing control messages infeasible,
        # driving the graceful-degradation fallback to the setup-free
        # naive algorithm.
        "setup_loss": FaultPlan(
            losses=(MessageLoss(probability=0.9, start=0.0, end=0.0),),
            retry=RetryPolicy(timeout=50e-6, backoff=2.0, max_retries=1),
            seed=seed,
        ),
        # Fail-stop: two ranks die mid-collective (one early, one later).
        # The two profiles share the same crash plan; they differ only in
        # the recovery policy paired with them (CRASH_PROFILE_MODES):
        # ``crash`` measures the degrade-to-naive path, ``crash_recover``
        # the communicator-shrink replan.
        "crash": FaultPlan(crashes=crash_specs, seed=seed),
        "crash_recover": FaultPlan(crashes=crash_specs, seed=seed),
    }


def get_profile(name: str, n_ranks: int, seed: int = 0) -> FaultPlan | None:
    """Resolve one named profile (``"clean"`` returns ``None``)."""
    if name == "clean":
        return None
    profiles = resilience_profiles(n_ranks, seed=seed)
    try:
        return profiles[name]
    except KeyError:
        raise KeyError(
            f"unknown fault profile {name!r}; available: {', '.join(PROFILE_NAMES)}"
        ) from None
