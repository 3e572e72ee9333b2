"""The discrete-event engine: processes, matching, waits.

Each rank runs one *program*: a generator that posts operations straight
into the engine (:meth:`Engine.send`, :meth:`Engine.recv`) and yields the
engine's one wait condition (:meth:`Engine.waitall_condition`).  Every
program the package spawns is :func:`~repro.sim.program.rank_program`
over a rank's op stream.  The engine is fully deterministic — events are
ordered by ``(time, seq)`` where ``seq`` is allocation order — and detects
deadlock (all processes blocked with an empty event heap).

Hot-path notes: :meth:`Engine.send` is the one send path; it returns the
message's timing and keeps nothing per send.  :meth:`Engine.recv` is the
one receive path: a receive is a *slot*, an index into flat per-engine
lists (post time, completion time, size, payload, waiter), so posting,
waiting on and reading a receive allocates no object per receive.  A
delivered message completes a matched posted receive in place, waking its
waiter in the same call; the wait condition lists receive slots plus a
``floor`` — the latest completion of sends it does not list — so a
program need not keep anything per send just to wait on it.  Matching is
directed (every receive names its source) and uses one dict per kind,
keyed by destination first: posted receives ``(dst, src, tag) -> slot``
and unexpected messages ``(dst, src, tag) -> (nbytes, payload,
arrival)``, each entry a deque only while two share a key (:func:`_put`,
:func:`_take`).  Keys are deleted as soon as they drain, so long sweeps
accumulate neither empty queues nor consumed-message tombstones.  The
engine keeps no reference to what its programs were built from, so once
every program has finished (or :meth:`Engine.close` has closed the rest)
nothing refers back to it and reference counting frees it, tables and
all.  Blocked-state diagnostics are built lazily (only when a deadlock is
actually reported).
"""

from __future__ import annotations

import heapq
import math
from collections import deque
from typing import Callable, Generator, Iterable, Sequence

from repro.cluster.machine import Machine
from repro.sim.fabric import Fabric, MessageTiming
from repro.sim.faults import FaultInjector, FaultPlan
from repro.sim.tracing import TraceCollector

_INF = math.inf


def blocked_detail(pending: Iterable[tuple[int, int]]) -> str:
    """The blocked-rank text of every budget and deadlock report, from each
    unfinished rank's ``(rank, receives it waits on)``, in rank order."""
    parts = [f"rank {r} (waitall({k} pending))" if k else f"rank {r} (runnable)"
             for r, k in pending]
    return ", ".join(parts) or "none"


class DeadlockError(RuntimeError):
    """Raised when the event heap empties while processes are still blocked."""

    @classmethod
    def blocked(cls, processes: str) -> "DeadlockError":
        """The report of a run whose ``processes`` (:func:`blocked_detail`)
        can never resume."""
        return cls(f"simulation deadlocked; blocked processes: {processes}")


class RetriesExhaustedError(RuntimeError):
    """A message exhausted its :class:`~repro.sim.faults.MessageLoss` retry
    budget: every transmission attempt was dropped and the sender gave up
    after its final ack timeout.

    Previously this surfaced only later — and anonymously — as a
    ``DeadlockError`` once the starved receiver drained the event heap.  The
    structured fields name the failing transfer directly:

    * ``rank`` — the sending rank;
    * ``peer`` — the destination rank that will never receive the message;
    * ``attempts`` — transmissions made (first try + retransmissions);
    * ``last_timeout`` — the ack-timeout (seconds) that expired last.
    """

    def __init__(self, message: str, *, rank: int | None = None,
                 peer: int | None = None, attempts: int | None = None,
                 last_timeout: float | None = None):
        super().__init__(message)
        self.rank = rank
        self.peer = peer
        self.attempts = attempts
        self.last_timeout = last_timeout


class RankFailedError(RuntimeError):
    """Fail-stop failure notification: crashed ranks left survivors stalled.

    Raised only when the fault plan installs a
    :class:`~repro.sim.faults.FailureDetector`; without one a crash that
    starves survivors surfaces as :class:`DeadlockError`, exactly like a
    real system with no failure detection.  Detection cost is charged in
    simulated time: ``detection_time`` is
    ``max(stall time, last crash) + heartbeat_interval + suspicion_timeout``
    and the engine clock is advanced to it before raising.

    * ``failed_ranks`` — crashed ranks, ascending (engine-local ids);
    * ``detection_time`` — simulated time at which survivors learned of
      the failure;
    * ``survivors`` — all non-crashed ranks, ascending.
    """

    def __init__(self, message: str, *, failed_ranks: tuple[int, ...],
                 detection_time: float, survivors: tuple[int, ...]):
        super().__init__(message)
        self.failed_ranks = failed_ranks
        self.detection_time = detection_time
        self.survivors = survivors


class SimTimeoutError(RuntimeError):
    """Raised when a watchdog budget (``max_sim_time``/``max_events``) trips.

    Budget boundaries are *inclusive*: an event whose timestamp equals
    ``max_sim_time`` is still processed (only a strictly-later event trips
    the time budget), and processing exactly ``max_events`` events is
    allowed (the attempt to process one more trips the event budget).

    Besides the human-readable message — which always names the tripped
    budget, the number of events processed so far, and the per-rank blocked
    state in deterministic rank order — the exception carries structured
    fields so callers can dispatch without parsing strings:

    * ``budget`` — ``"sim_time"`` or ``"events"`` (which limit tripped);
    * ``events_processed`` — events fully processed before the trip;
    * ``limit`` — the configured budget value that was exceeded.
    """

    def __init__(self, message: str, *, budget: str | None = None,
                 events_processed: int | None = None,
                 limit: float | int | None = None):
        super().__init__(message)
        self.budget = budget
        self.events_processed = events_processed
        self.limit = limit

    @staticmethod
    def check_budgets(max_sim_time: float | None, max_events: int | None) -> None:
        """Reject a budget that is set but not positive (``ValueError``)."""
        if max_sim_time is not None and max_sim_time <= 0:
            raise ValueError(f"max_sim_time must be > 0, got {max_sim_time}")
        if max_events is not None and max_events <= 0:
            raise ValueError(f"max_events must be > 0, got {max_events}")

    @classmethod
    def time_budget(cls, time: float, limit: float, events: int,
                    processes: str) -> "SimTimeoutError":
        """The trip of ``max_sim_time = limit`` by an event at ``time``,
        after ``events`` events."""
        return cls(
            f"simulated-time budget exceeded: next event at {time:.6e}s > "
            f"max_sim_time={limit:.6e}s after {events} event(s); "
            f"processes: {processes}",
            budget="sim_time", events_processed=events, limit=limit,
        )

    @classmethod
    def event_budget(cls, limit: int, events: int, processes: str) -> "SimTimeoutError":
        """The trip of ``max_events = limit``, after ``events`` events."""
        return cls(
            f"event budget exceeded: processed {events} events "
            f"(max_events={limit}); processes: {processes}",
            budget="events", events_processed=events, limit=limit,
        )


def _put(table: dict, key, item) -> None:
    """Queue ``item`` under ``key``: stored as is, or in a deque behind
    the entries already there."""
    held = table.setdefault(key, item)
    if held is not item:
        if held.__class__ is deque:
            held.append(item)
        else:
            table[key] = deque((held, item))


def _take(table: dict, key):
    """Remove and return the oldest entry under ``key`` (None if none); a
    deque left with one entry goes back to the bare entry."""
    held = table.pop(key, None)
    if held.__class__ is deque:
        item = held.popleft()
        table[key] = held if len(held) > 1 else held[0]
        return item
    return held


class _WaitAll:
    """Condition: resume when every receive slot in ``slots`` has completed,
    and not before ``floor``."""

    __slots__ = ("slots", "floor")

    def __init__(self, slots: Sequence[int], floor: float = 0.0):
        self.slots = slots
        self.floor = floor


class _WaitState:
    """Bookkeeping for one blocked process."""

    __slots__ = ("rank", "remaining", "latest")

    def __init__(self, rank: int, start: float):
        self.rank = rank
        self.remaining = 0
        self.latest = start


class Engine:
    """Deterministic discrete-event simulator over ``n_ranks`` processes.

    Receives live in flat lists indexed by the slot :meth:`recv` returns:
    ``recv_post`` (post time), ``recv_done`` (completion time, None while
    pending), ``recv_nbytes`` and ``recv_payload`` (the matched message).
    Programs read them; only the engine writes them.
    """

    def __init__(
        self,
        n_ranks: int,
        machine: Machine,
        trace: TraceCollector | None = None,
        noise_seed: int = 0,
        faults: FaultPlan | FaultInjector | None = None,
        max_sim_time: float | None = None,
        max_events: int | None = None,
    ):
        if n_ranks <= 0:
            raise ValueError(f"n_ranks must be > 0, got {n_ranks}")
        if n_ranks > machine.spec.n_ranks:
            raise ValueError(
                f"n_ranks={n_ranks} exceeds machine capacity {machine.spec.n_ranks}"
            )
        SimTimeoutError.check_budgets(max_sim_time, max_events)
        self.n_ranks = n_ranks
        self.machine = machine
        if isinstance(faults, FaultPlan):
            faults = FaultInjector(faults)
        #: Fault injector for this run (None = pristine); exposes the
        #: drop/retransmission/loss counters after the run.
        self.faults = faults
        self.fabric = Fabric(machine, noise_seed=noise_seed, faults=faults)
        self.trace = trace
        # Watchdog budgets, checked by run() on every event.
        self._max_sim_time = max_sim_time
        self._max_events = max_events
        self.events_processed = 0
        #: Messages whose retry budget ran out (never delivered).
        self.messages_lost = 0
        # Fail-stop state.  An empty crash table keeps _resume and send
        # branch-cheap for crash-free plans.
        self._crash_times: dict[int, float] = (
            dict(faults.crash_times) if faults is not None else {}
        )
        self._detector = faults.detector if faults is not None else None
        #: Ranks actually killed by a RankCrash fault during this run.
        self.crashed_ranks: set[int] = set()
        #: Ranks whose in-flight sends were crash-dropped.  A sender whose
        #: program completes before its crash time is never killed by an
        #: event, yet its undelivered bytes still die with it — to a
        #: starved receiver it is simply a dead peer (see _on_stall).
        self._crash_dropped_senders: set[int] = set()

        self.now = 0.0
        self.rank_now = [0.0] * n_ranks
        self._heap: list[tuple[float, int, int]] = []
        self._seq = 0
        self._programs: dict[int, Generator] = {}
        self._finished: dict[int, float] = {}
        #: rank -> _WaitState of each blocked process; formatted lazily for
        #: deadlock reports only, never on the hot path.
        self._blocked: dict[int, _WaitState] = {}

        # Receive slots (see recv): one entry per posted receive, in post
        # order.  A slot's completion time, size and payload are None until
        # a message matches it.
        self.recv_post: list[float] = []
        self.recv_done: list[float | None] = []
        self.recv_nbytes: list[int | None] = []
        self.recv_payload: list = []
        self._recv_waiter: list[_WaitState | None] = []
        # Matching tables, one per kind, keyed by destination first (see
        # the module docstring); a key is deleted as soon as it drains.
        self._posted: dict[tuple[int, int, int], int | deque[int]] = {}
        self._unexpected: dict[tuple[int, int, int], tuple | deque[tuple]] = {}

        # Aggregate statistics.
        self.messages_sent = 0
        self.bytes_sent = 0

    # ------------------------------------------------------------------ setup
    def spawn(self, rank: int, program: Generator | None) -> None:
        """Install the generator ``program`` as the process for ``rank``.

        ``None`` marks a rank with no work: it finishes at time 0 with no
        event and no sequence number.
        """
        if rank in self._programs or rank in self._finished:
            raise ValueError(f"rank {rank} already has a program")
        if not 0 <= rank < self.n_ranks:
            raise ValueError(f"rank {rank} out of range [0, {self.n_ranks})")
        if program is None:
            self._finished[rank] = 0.0
            return
        self._programs[rank] = program
        # Straggler launch delay: the rank's first event fires late.
        start = 0.0 if self.faults is None else self.faults.startup_delay(rank)
        self._schedule(start, rank)

    def spawn_all(self, programs: Callable[[int], Generator | None]) -> None:
        """Spawn ``programs(rank)`` for every rank, in rank order."""
        for rank in range(self.n_ranks):
            self.spawn(rank, programs(rank))

    # ------------------------------------------------------------------- time
    def _schedule(self, time: float, rank: int) -> None:
        self._seq += 1
        heapq.heappush(self._heap, (time, self._seq, rank))

    def run(self) -> float:
        """Run to completion; returns the makespan (max finish time).

        With a watchdog budget set, the loop checks each event against
        ``max_sim_time`` (event timestamp) and ``max_events`` (events
        processed) and raises :class:`SimTimeoutError` on the first breach.
        Boundaries are inclusive (see :class:`SimTimeoutError`): an event
        *at* ``max_sim_time`` is processed, and exactly ``max_events``
        events may be processed — the budget trips on event
        ``max_events + 1``.  ``events_processed`` is kept accurate on every
        exit path, budgeted or not.
        """
        heap = self._heap
        pop = heapq.heappop
        resume = self._resume
        max_time = math.inf if self._max_sim_time is None else self._max_sim_time
        max_events = self._max_events
        events = self.events_processed
        try:
            while heap:
                time, _, rank = pop(heap)
                if time > max_time:
                    raise SimTimeoutError.time_budget(
                        time, max_time, events, self._blocked_detail())
                if max_events is not None and events >= max_events:
                    raise SimTimeoutError.event_budget(
                        max_events, events, self._blocked_detail())
                events += 1
                self.now = time
                resume(rank, time)
        finally:
            self.events_processed = events
        if self._programs:
            self._on_stall()
        return self.makespan()

    def _on_stall(self) -> None:
        """Event heap drained with live processes: detection or deadlock.

        A blocked rank with a pending crash time is doomed too — no event
        can ever resume it before simulated time runs past its crash — so
        it is killed here rather than left to masquerade as a survivor.  If
        killing the doomed unblocks the stall (everyone else had already
        finished), the run completes; otherwise a detector converts the
        stall into a structured :class:`RankFailedError`, and a plan
        without one deadlocks exactly as a system with no failure
        detection would.
        """
        if self._crash_times:
            for rank in [r for r in self._programs if r in self._crash_times]:
                self._kill(rank)
            if not self._programs:
                return
            # A sender whose program finished before its crash time but
            # whose in-flight bytes were crash-dropped is dead all the
            # same: its block never arrived and its heartbeats stopped, so
            # a starved receiver cannot tell "finished then died" from
            # "died mid-send".  Reclassify it as crashed so detection
            # (below) names it instead of reporting a bare deadlock.
            for rank in self._crash_dropped_senders:
                if rank not in self._programs and rank not in self.crashed_ranks:
                    self.crashed_ranks.add(rank)
                    self.faults.rank_crashes += 1
            if self.crashed_ranks and self._detector is not None:
                last_crash = max(self._crash_times[r] for r in self.crashed_ranks)
                detection = max(self.now, last_crash) + self._detector.detection_lag
                self.now = detection
                failed = tuple(sorted(self.crashed_ranks))
                survivors = tuple(
                    r for r in range(self.n_ranks) if r not in self.crashed_ranks
                )
                raise RankFailedError(
                    f"rank(s) {list(failed)} failed; detected at "
                    f"{detection:.6e}s; blocked survivors: {self._blocked_detail()}",
                    failed_ranks=failed, detection_time=detection,
                    survivors=survivors,
                )
        raise DeadlockError.blocked(self._blocked_detail())

    def _kill(self, rank: int) -> None:
        """Fail-stop: tear down a crashed rank's process mid-run."""
        gen = self._programs.pop(rank, None)
        if gen is not None:
            gen.close()
        self._blocked.pop(rank, None)
        if rank not in self.crashed_ranks:
            self.crashed_ranks.add(rank)
            self.faults.rank_crashes += 1

    def _blocked_detail(self) -> str:
        """:func:`blocked_detail` of every unfinished process (error paths
        only — never built on the hot path)."""
        blocked = self._blocked
        return blocked_detail((r, blocked[r].remaining if r in blocked else 0)
                              for r in sorted(self._programs))

    def makespan(self) -> float:
        return max(self._finished.values(), default=0.0)

    def finish_time(self, rank: int) -> float:
        return self._finished[rank]

    def finish_times(self) -> dict[int, float]:
        return dict(self._finished)

    # ---------------------------------------------------------------- resume
    def _resume(self, rank: int, time: float) -> None:
        gen = self._programs[rank]
        if self._crash_times:
            crash_at = self._crash_times.get(rank)
            if crash_at is not None and time >= crash_at:
                # Fail-stop at event granularity: the rank's first event at
                # or after its crash time kills it instead of resuming it.
                # A rank that finishes before its crash time is never killed.
                self._kill(rank)
                return
        rank_now = self.rank_now
        if time > rank_now[rank]:
            rank_now[rank] = time
        try:
            condition = next(gen)
        except StopIteration:
            del self._programs[rank]
            self._blocked.pop(rank, None)
            self._finished[rank] = rank_now[rank]
            return
        if condition.__class__ is not _WaitAll:
            raise TypeError(
                f"rank {rank} yielded {condition!r}; programs must yield wait "
                "conditions (Engine.waitall_condition)"
            )
        # Wait: resume at once (at the latest completion) when every slot
        # has completed, else block until the last one does.
        latest = rank_now[rank]
        if condition.floor > latest:
            latest = condition.floor
        done = self.recv_done
        waiters = self._recv_waiter
        state = None
        remaining = 0
        for slot in condition.slots:
            t = done[slot]
            if t is None:
                if state is None:
                    state = _WaitState(rank, latest)
                waiters[slot] = state
                remaining += 1
            elif t > latest:
                latest = t
        if state is None:
            self._schedule(latest, rank)
        else:
            state.latest = latest
            state.remaining = remaining
            self._blocked[rank] = state

    # -------------------------------------------------------------- messaging
    def send(self, src: int, dst: int, nbytes: int, tag: int, payload) -> MessageTiming:
        """Send a message from ``src`` at its clock; returns its timing.

        The one send path: it claims the fabric, drops the bytes of a
        sender that dies before they land (``arrival`` is then ``inf``),
        counts and traces the message, and delivers ``payload`` into a
        matching posted receive or the unexpected queue.  A message whose
        retry budget runs out raises :class:`RetriesExhaustedError`, with
        the counters already updated.
        """
        if not 0 <= dst < self.n_ranks:
            raise ValueError(f"destination rank {dst} out of range [0, {self.n_ranks})")
        if nbytes < 0:
            raise ValueError(f"nbytes must be >= 0, got {nbytes}")
        post_time = self.rank_now[src]
        timing = self.fabric.transmit(src, dst, nbytes, post_time)
        arrival = timing.arrival
        crash_dropped = False
        if self._crash_times and arrival != _INF:
            crash_at = self._crash_times.get(src)
            if crash_at is not None and arrival > crash_at:
                # In-flight send from a rank that dies before delivery: the
                # data never lands.  Recorded in the trace as lost (inf
                # arrival) so conservation laws still balance.
                timing = MessageTiming(timing.send_complete, _INF,
                                       timing.link_class, timing.attempts)
                arrival = _INF
                crash_dropped = True
        self.messages_sent += 1
        self.bytes_sent += nbytes
        if self.trace is not None:
            self.trace.record(src, dst, nbytes, tag, timing, post_time)
        if arrival == _INF:
            self.messages_lost += 1
            if crash_dropped:
                self.faults.crash_dropped += 1
                self._crash_dropped_senders.add(src)
                return timing
            # Retry budget exhausted: the message is permanently lost.
            # Instead of letting the starved receiver drain the heap into an
            # anonymous DeadlockError, the failure is reported at its
            # source, with the transfer named.
            retry = self.faults.retry
            raise RetriesExhaustedError(
                f"message {src} -> {dst} ({nbytes} B, tag {tag}) lost: all "
                f"{timing.attempts} transmission attempts dropped; last ack "
                f"timeout {retry.delay_after(timing.attempts):.3e}s expired "
                f"at t={timing.send_complete:.6e}s",
                rank=src, peer=dst, attempts=timing.attempts,
                last_timeout=retry.delay_after(timing.attempts),
            )
        # Deliver: complete the oldest matching posted receive, else queue
        # the message as unexpected.
        key = (dst, src, tag)
        slot = _take(self._posted, key)
        if slot is None:
            _put(self._unexpected, key, (nbytes, payload, arrival))
            return timing
        self._complete_recv(slot, nbytes, payload, arrival)
        return timing

    def recv(self, dst: int, src: int, tag: int) -> int:
        """Post a receive from ``src`` at ``dst``'s clock; returns its slot.

        The one receive path.  The slot indexes the engine's receive lists:
        ``recv_done[slot]`` is the completion time (None while the receive
        is pending), and ``recv_nbytes`` and ``recv_payload`` hold the
        matched message.  The oldest unexpected message on the key
        completes the receive at once; otherwise it waits in the posted
        table, FIFO per key.
        """
        if not 0 <= src < self.n_ranks:
            raise ValueError(f"source rank {src} out of range [0, {self.n_ranks})")
        slot = len(self.recv_post)
        now = self.rank_now[dst]
        self.recv_post.append(now)
        self._recv_waiter.append(None)
        key = (dst, src, tag)
        if self._unexpected:
            msg = _take(self._unexpected, key)
            if msg is not None:
                arrival = msg[2]
                self.recv_done.append(arrival if arrival > now else now)
                self.recv_nbytes.append(msg[0])
                self.recv_payload.append(msg[1])
                return slot
        self.recv_done.append(None)
        self.recv_nbytes.append(None)
        self.recv_payload.append(None)
        _put(self._posted, key, slot)
        return slot

    def _complete_recv(self, slot: int, nbytes: int, payload, arrival: float) -> None:
        """Complete a matched posted receive; unblock its waiter if this
        was the last slot it waited on."""
        self.recv_nbytes[slot] = nbytes
        self.recv_payload[slot] = payload
        post = self.recv_post[slot]
        t = arrival if arrival > post else post
        self.recv_done[slot] = t
        waiters = self._recv_waiter
        state = waiters[slot]
        if state is None:
            return
        waiters[slot] = None
        if t > state.latest:
            state.latest = t
        state.remaining -= 1
        if state.remaining == 0:
            self._blocked.pop(state.rank, None)
            self._schedule(state.latest, state.rank)

    def close(self) -> None:
        """Close the programs still suspended after a run that raised.

        A suspended program's frame refers back to the engine, so until
        it is closed the engine is freed only by the cycle collector.
        """
        for gen in self._programs.values():
            gen.close()

    # ------------------------------------------------------------- conditions
    @staticmethod
    def waitall_condition(slots: Sequence[int], floor: float = 0.0) -> _WaitAll:
        """The one wait condition: every receive slot in ``slots`` has
        completed, and the clock has reached ``floor``."""
        return _WaitAll(slots, floor)
