"""The discrete-event engine: processes, matching, waits, barriers.

Each rank runs a *program*: a generator that posts operations through its
:class:`~repro.sim.communicator.SimCommunicator` (the collectives' generic
program posts straight into the engine) and yields wait conditions.
The engine is fully deterministic — events are ordered by ``(time, seq)``
where ``seq`` is allocation order — and detects deadlock (all processes
blocked with an empty event heap).

Hot-path notes: :meth:`Engine.send` is the one send path and allocates no
request (:meth:`Engine.post_send` wraps it for programs that want one); a
delivered message completes a matched posted receive in place, waking its
waiter in the same call, and a wait may carry a ``floor`` — the latest
completion of sends it does not list — so a program need not keep a
request per send just to wait on it.  Matching tables hold plain deques
keyed per destination and are pruned as soon as a queue drains (long
sweeps must not accumulate empty deques or consumed-message tombstones);
unexpected messages live in one ``(src, tag)`` table with a delivery
stamp, and ANY_SOURCE receives match the minimum stamp over queue heads
instead of maintaining a second queue per tag.  Blocked-state diagnostics
are built lazily (only when a deadlock is actually reported), and request
completion assigns ``completion_time`` directly for engine-owned requests
instead of going through the guarded
:meth:`~repro.sim.request.Request.complete`.
"""

from __future__ import annotations

import heapq
import math
from collections import deque
from typing import Callable, Generator, Iterable

from repro.cluster.machine import Machine
from repro.cluster.spec import LinkClass
from repro.sim.fabric import Fabric, MessageTiming
from repro.sim.faults import FaultInjector, FaultPlan
from repro.sim.request import Request, RequestKind
from repro.sim.tracing import TraceCollector

# Hot-path constants: enum member lookup is a descriptor call per access.
_SEND = RequestKind.SEND
_RECV = RequestKind.RECV

_INF = math.inf


class DeadlockError(RuntimeError):
    """Raised when the event heap empties while processes are still blocked."""


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


class _WaitAll:
    """Condition: resume when every request in ``requests`` has completed,
    and not before ``floor``."""

    __slots__ = ("requests", "floor")

    def __init__(self, requests: Iterable[Request], floor: float = 0.0):
        self.requests = tuple(requests)
        self.floor = floor


class _Compute:
    """Condition: resume after ``duration`` seconds of local work."""

    __slots__ = ("duration",)

    def __init__(self, duration: float):
        if duration < 0:
            raise ValueError(f"compute duration must be >= 0, got {duration}")
        self.duration = duration


class _Barrier:
    """Condition: resume when all ranks have entered the barrier."""

    __slots__ = ()


class _WaitState:
    """Bookkeeping for one blocked process."""

    __slots__ = ("rank", "remaining", "latest")

    def __init__(self, rank: int, start: float):
        self.rank = rank
        self.remaining = 0
        self.latest = start


class _Unexpected:
    """A delivered message with no matching posted receive yet.

    ``seq`` is the engine-wide delivery stamp: ANY_SOURCE matching picks the
    lowest stamp among candidate queue heads, which reproduces arrival-order
    (FIFO, non-overtaking) matching without keeping a second per-tag queue.
    """

    __slots__ = ("src", "tag", "nbytes", "payload", "arrival", "seq")

    def __init__(self, src: int, tag: int, nbytes: int, payload, arrival: float, seq: int):
        self.src = src
        self.tag = tag
        self.nbytes = nbytes
        self.payload = payload
        self.arrival = arrival
        self.seq = seq


class Engine:
    """Deterministic discrete-event simulator over ``n_ranks`` processes."""

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
        if max_sim_time is not None and max_sim_time <= 0:
            raise ValueError(f"max_sim_time must be > 0, got {max_sim_time}")
        if max_events is not None and max_events <= 0:
            raise ValueError(f"max_events must be > 0, got {max_events}")
        self.n_ranks = n_ranks
        self.machine = machine
        if isinstance(faults, FaultPlan):
            faults = FaultInjector(faults)
        #: Fault injector for this run (None = pristine); exposes the
        #: drop/retransmission/loss counters after the run.
        self.faults = faults
        self.fabric = Fabric(machine, noise_seed=noise_seed, faults=faults)
        self.trace = trace
        # Watchdog budgets; checked in run() only when set (the pristine
        # event loop stays branch-free).
        self._max_sim_time = max_sim_time
        self._max_events = max_events
        self.events_processed = 0
        #: Messages whose retry budget ran out (never delivered).
        self.messages_lost = 0
        # Per-rank compute scaling (stragglers); None keeps _resume lean.
        self._compute_scale: list[float] | None = None
        if faults is not None and faults.has_stragglers:
            self._compute_scale = [faults.compute_factor(r) for r in range(n_ranks)]
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
        #: rank -> "compute" | "barrier" | _WaitState; formatted lazily for
        #: deadlock reports only, never on the hot path.
        self._blocked: dict[int, object] = {}

        # Per-destination matching state.  Queues are created on demand and
        # deleted as soon as they drain.  Unexpected messages live in a
        # single (src, tag)-keyed table per destination; ANY_SOURCE receives
        # match by minimum delivery stamp (`_Unexpected.seq`) over the
        # candidate queue heads, so no message is ever double-booked and no
        # consumed tombstone can accumulate.
        self._posted: list[dict[tuple[int, int], deque[Request]]] = [dict() for _ in range(n_ranks)]
        self._posted_any: list[dict[int, deque[Request]]] = [dict() for _ in range(n_ranks)]
        self._unexpected: list[dict[tuple[int, int], deque[_Unexpected]]] = [
            dict() for _ in range(n_ranks)
        ]
        self._useq = 0

        # Barrier state.
        self._barrier_waiting: list[int] = []
        self._barrier_latest = 0.0

        # Aggregate statistics.
        self.messages_sent = 0
        self.bytes_sent = 0

        from repro.sim.communicator import SimCommunicator  # late: avoids cycle

        self.comms = [SimCommunicator(self, rank) for rank in range(n_ranks)]

    # ------------------------------------------------------------------ setup
    def spawn(self, rank: int, program: Callable[..., Generator]) -> None:
        """Install ``program(comm)`` as the process for ``rank``."""
        if rank in self._programs or rank in self._finished:
            raise ValueError(f"rank {rank} already has a program")
        if not 0 <= rank < self.n_ranks:
            raise ValueError(f"rank {rank} out of range [0, {self.n_ranks})")
        gen = program(self.comms[rank])
        if gen is None:
            # Program did all its (zero-cost) work synchronously.
            self._finished[rank] = 0.0
            return
        self._programs[rank] = gen
        # Straggler launch delay: the rank's first event fires late.
        start = 0.0 if self.faults is None else self.faults.startup_delay(rank)
        self._schedule(start, rank)

    def spawn_all(self, program_factory: Callable[[int], Callable]) -> None:
        """Spawn ``program_factory(rank)`` for every rank."""
        for rank in range(self.n_ranks):
            self.spawn(rank, program_factory(rank))

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
        max_time = self._max_sim_time
        max_events = self._max_events
        events = self.events_processed
        if max_time is None and max_events is None:
            try:
                while heap:
                    time, _, rank = pop(heap)
                    events += 1
                    self.now = time
                    resume(rank, time)
            finally:
                self.events_processed = events
        else:
            if max_time is None:
                max_time = math.inf
            while heap:
                time, _, rank = pop(heap)
                if time > max_time:
                    self.events_processed = events
                    raise SimTimeoutError(
                        f"simulated-time budget exceeded: next event at "
                        f"{time:.6e}s > max_sim_time={max_time:.6e}s "
                        f"after {events} event(s); "
                        f"processes: {self._blocked_detail()}",
                        budget="sim_time", events_processed=events,
                        limit=max_time,
                    )
                events += 1
                if max_events is not None and events > max_events:
                    self.events_processed = events - 1
                    raise SimTimeoutError(
                        f"event budget exceeded: processed {events - 1} events "
                        f"(max_events={max_events}); "
                        f"processes: {self._blocked_detail()}",
                        budget="events", events_processed=events - 1,
                        limit=max_events,
                    )
                self.now = time
                resume(rank, time)
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
        raise DeadlockError(
            f"simulation deadlocked; blocked processes: {self._blocked_detail()}"
        )

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
        """Lazily-formatted state of every unfinished process (error paths
        only — never built on the hot path)."""
        if not self._programs:
            return "none"
        return ", ".join(
            f"rank {r} ({self._blocked_reason(r)})" for r in sorted(self._programs)
        )

    def _blocked_reason(self, rank: int) -> str:
        state = self._blocked.get(rank)
        if state is None:
            return "runnable"
        if isinstance(state, _WaitState):
            return f"waitall({state.remaining} pending)"
        return str(state)

    def makespan(self) -> float:
        return max(self._finished.values(), default=0.0)

    def finish_time(self, rank: int) -> float:
        return self._finished[rank]

    def finish_times(self) -> dict[int, float]:
        return dict(self._finished)

    # ---------------------------------------------------------------- resume
    def _resume(self, rank: int, time: float) -> None:
        gen = self._programs.get(rank)
        if gen is None:  # stale event (e.g. barrier resumed earlier); ignore
            return
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
        cls = condition.__class__
        if cls is _WaitAll:
            self._begin_wait(rank, condition)
        elif cls is _Compute:
            self._blocked[rank] = "compute"
            duration = condition.duration
            if self._compute_scale is not None:
                duration *= self._compute_scale[rank]
            self._schedule(rank_now[rank] + duration, rank)
        elif cls is _Barrier:
            self._enter_barrier(rank)
        else:
            self._handle_condition(rank, condition)

    def _handle_condition(self, rank: int, condition) -> None:
        # Slow path: accept subclasses of the condition types, reject junk.
        if isinstance(condition, _Compute):
            self._blocked[rank] = "compute"
            duration = condition.duration
            if self._compute_scale is not None:
                duration *= self._compute_scale[rank]
            self._schedule(self.rank_now[rank] + duration, rank)
        elif isinstance(condition, _WaitAll):
            self._begin_wait(rank, condition)
        elif isinstance(condition, _Barrier):
            self._enter_barrier(rank)
        else:
            raise TypeError(
                f"rank {rank} yielded {condition!r}; programs must yield wait conditions "
                "from SimCommunicator (waitall/wait/compute/memcpy/barrier)"
            )

    def _begin_wait(self, rank: int, condition: _WaitAll) -> None:
        state = _WaitState(rank, self.rank_now[rank])
        latest = state.latest
        if condition.floor > latest:
            latest = condition.floor
        remaining = 0
        for req in condition.requests:
            if req.owner != rank:
                raise ValueError(f"rank {rank} waiting on request owned by rank {req.owner}")
            t = req.completion_time
            if t is not None:
                if t > latest:
                    latest = t
            else:
                if req._waiter is not None:
                    raise RuntimeError("request already has a waiter")
                req._waiter = state
                remaining += 1
        state.latest = latest
        if remaining == 0:
            self._schedule(latest, rank)
        else:
            state.remaining = remaining
            self._blocked[rank] = state

    def _enter_barrier(self, rank: int) -> None:
        """MPI-style barrier over the engine's processes.

        Every spawned process must reach the barrier.  A process that
        already finished can never enter it, so — exactly like real MPI —
        the collective can never complete: that is a deadlock, reported
        eagerly instead of silently releasing over a partial communicator.
        """
        if self._finished:
            gone = sorted(self._finished)
            raise DeadlockError(
                f"rank {rank} entered a barrier but rank(s) {gone} already "
                "finished and can never participate; a real MPI barrier over "
                "this communicator would deadlock"
            )
        self._blocked[rank] = "barrier"
        self._barrier_waiting.append(rank)
        if self.rank_now[rank] > self._barrier_latest:
            self._barrier_latest = self.rank_now[rank]
        live = len(self._programs)
        if len(self._barrier_waiting) == live:
            # Dissemination-barrier cost model: ceil(log2 n) network
            # latencies; a single process synchronizes with nobody and
            # pays no rounds.
            if live > 1:
                alpha = self.machine.params.cost(LinkClass.INTER_NODE).alpha
                cost = math.ceil(math.log2(live)) * alpha
            else:
                cost = 0.0
            release = self._barrier_latest + cost
            for r in self._barrier_waiting:
                self._blocked.pop(r, None)
                self._schedule(release, r)
            self._barrier_waiting = []
            self._barrier_latest = 0.0

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
        key = (src, tag)
        table = self._posted[dst]
        posted = table.get(key)
        if posted:
            req = posted.popleft()
            if not posted:
                del table[key]
            self._complete_recv(req, src, nbytes, payload, arrival)
            return timing
        table_any = self._posted_any[dst]
        if table_any:
            posted = table_any.get(tag)
            if posted:
                req = posted.popleft()
                if not posted:
                    del table_any[tag]
                self._complete_recv(req, src, nbytes, payload, arrival)
                return timing
        self._useq = seq = self._useq + 1
        table_u = self._unexpected[dst]
        queue = table_u.get(key)
        if queue is None:
            table_u[key] = queue = deque()
        queue.append(_Unexpected(src, tag, nbytes, payload, arrival, seq))
        return timing

    def post_send(self, src: int, dst: int, nbytes: int, tag: int, payload) -> Request:
        """:meth:`send`, returning the (already determined) send request."""
        req = Request(_SEND, src, dst, tag, self.rank_now[src])
        timing = self.send(src, dst, nbytes, tag, payload)
        req.completion_time = timing.send_complete  # fresh request: no guard needed
        req.attempts = timing.attempts
        req.lost = timing.arrival == _INF
        return req

    def post_recv(self, dst: int, src: int | None, tag: int) -> Request:
        """Post a receive; ``src=None`` matches any source (MPI_ANY_SOURCE)."""
        if src is not None and not 0 <= src < self.n_ranks:
            raise ValueError(f"source rank {src} out of range [0, {self.n_ranks})")
        now = self.rank_now[dst]
        req = Request(_RECV, dst, src, tag, now)
        msg = None
        table_u = self._unexpected[dst]
        if table_u:
            if src is None:
                msg = self._match_unexpected_any(dst, tag)
            else:
                key = (src, tag)
                queue = table_u.get(key)
                if queue is not None:
                    msg = queue.popleft()
                    if not queue:
                        del table_u[key]
        if msg is not None:
            self._complete_recv(req, msg.src, msg.nbytes, msg.payload, msg.arrival)
        elif src is None:
            table = self._posted_any[dst]
            queue = table.get(tag)
            if queue is None:
                table[tag] = queue = deque()
            queue.append(req)
        else:
            table = self._posted[dst]
            key = (src, tag)
            queue = table.get(key)
            if queue is None:
                table[key] = queue = deque()
            queue.append(req)
        return req

    def _match_unexpected_any(self, dst: int, tag: int) -> _Unexpected | None:
        """Earliest-delivered unexpected message carrying ``tag``, any source.

        Queue heads are each source's oldest pending message, so the global
        minimum delivery stamp over matching heads is exactly the message an
        arrival-ordered ANY queue would surface.
        """
        table = self._unexpected[dst]
        best_key = None
        best = None
        for key, queue in table.items():
            if key[1] == tag:
                head = queue[0]
                if best is None or head.seq < best.seq:
                    best = head
                    best_key = key
        if best is None:
            return None
        queue = table[best_key]
        queue.popleft()
        if not queue:
            del table[best_key]
        return best

    def _complete_recv(self, req: Request, src: int, nbytes: int, payload, arrival: float) -> None:
        """Complete a matched receive; unblock its waiter if this was the
        last request it waited on."""
        req.source = src
        req.nbytes = nbytes
        req.payload = payload
        t = arrival if arrival > req.post_time else req.post_time
        req.completion_time = t
        state = req._waiter
        if state is None:
            return
        req._waiter = None
        if t > state.latest:
            state.latest = t
        state.remaining -= 1
        if state.remaining == 0:
            self._blocked.pop(state.rank, None)
            self._schedule(state.latest, state.rank)

    # ------------------------------------------------------------- conditions
    @staticmethod
    def waitall_condition(requests: Iterable[Request], floor: float = 0.0) -> _WaitAll:
        return _WaitAll(requests, floor)

    @staticmethod
    def compute_condition(duration: float) -> _Compute:
        return _Compute(duration)

    @staticmethod
    def barrier_condition() -> _Barrier:
        return _Barrier()
