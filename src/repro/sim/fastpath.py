"""Engine-free schedule execution: the hybrid fast path.

:func:`execute_schedule` replays a static :class:`~repro.sim.schedule.Schedule`
with exactly the discrete-event engine's semantics — same event heap ordering
``(time, seq, rank)``, same sequence-number allocation, same FIFO matching,
same resource-claim arithmetic over the same route rows
(:func:`~repro.sim.fabric.routes_for`) as :class:`~repro.sim.fabric.Fabric`
— but without generator resumes, :class:`~repro.sim.request.Request`
objects, or per-message method dispatch.  The result is bit-identical to
the engine for every pristine run (no faults, no jitter, no tracing):
``sim_mode="auto"`` is a pure speedup.

Schedules are priced per call: every op's byte field is a count of
``unit``-byte blocks (``execute_schedule(..., unit=m)``), so the uniform-size
schedule :meth:`~repro.collectives.base.NeighborhoodAllgatherAlgorithm.schedule_for`
builds once, in 1-byte blocks, serves a sweep's whole message-size axis.
Three ideas make replay fast:

* **Compile once per pattern.**  :func:`multi_plan_for` turns a schedule
  into a size-free :class:`_MultiStagePlan` — static send→receive matching,
  each send's NIC ids and lanes from its socket pair's route row, and
  per-op ids into the distinct pricing cohorts — cached per
  ``(structural digest, machine digest)`` in :mod:`repro.sim.plancache`.
* **Price each call, vectorized.**  A call prices the cohorts (distinct
  ``(socket pair, block count)`` sends, distinct charge counts) in one
  numpy pass over ``nb = count * unit`` — ``alpha + nb*inv_beta``, NIC and
  link costs, ``nb / memcpy_beta``: elementwise IEEE ops identical to the
  fabric's scalar expressions.  The replay loop only indexes those lists.
* **Scalar claim recurrences, on purpose.**  A resource's claim sequence
  ``end_i = max(post_i, end_{i-1}) + dur_i`` is *not* reformulated as a
  cumulative sum: floating-point addition is non-associative, and any
  prefix-sum regrouping would break bit-identity with the engine.  Claims
  stay in event order over plain float state.

One executor, :func:`_execute_multi`, replays every schedule.  A receive
that no send matches stays posted and its owner blocks in its waitall, as
on the engine, so such a schedule deadlocks: the executor raises the
engine's :class:`~repro.sim.engine.DeadlockError` text after the same
number of events.

Watchdog budgets (``max_sim_time``/``max_events``) are honored with the
engine's exact boundary semantics: an event with timestamp equal to
``max_sim_time`` is processed (strictly-greater trips the budget), and
processing exactly ``max_events`` events is allowed (the attempt to process
one more trips it).  Event counting is identical — one event per heap pop —
so a budgeted run trips on the same event in both paths.
"""

from __future__ import annotations

import heapq
from itertools import accumulate
from typing import TYPE_CHECKING

import numpy as np

from repro.sim.engine import DeadlockError, SimTimeoutError
from repro.sim.fabric import (
    LANES_GROUP,
    LANES_NONE,
    LANES_OBLIVIOUS,
    LANES_PAIR,
    routes_for,
)
from repro.sim.plancache import PLAN_CACHE, machine_digest
from repro.sim.schedule import spawn_wake_order, static_matching, structural_digest

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.cluster.machine import Machine
    from repro.sim.schedule import Schedule

#: Relative tolerance of the retired closed-form pricing mode.  Nothing in
#: the package reads it; the repository benchmark's cell check
#: (``perf/run.py``) still imports it, and it goes once that check does.
ANALYTIC_RTOL = 1e-2


class FastRunOutcome:
    """What :func:`execute_schedule` returns (mirrors the engine's outputs)."""

    __slots__ = (
        "simulated_time",
        "finish_times",
        "messages_sent",
        "bytes_sent",
        "events_processed",
    )

    def __init__(self, simulated_time, finish_times, messages_sent,
                 bytes_sent, events_processed):
        self.simulated_time = simulated_time
        self.finish_times = finish_times
        self.messages_sent = messages_sent
        self.bytes_sent = bytes_sent
        self.events_processed = events_processed


class _MultiStagePlan:
    """Size-free compiled tables for the heap-driven executor.

    Segments of different ranks interleave in heap ``(time, seq, rank)``
    order, which is a runtime quantity — so the plan keeps the engine's
    *event structure* (one heap pop per spawn and per waitall wake,
    identical seq allocation) and makes everything inside an event static:

    * ``rank_segs[r]`` lists rank ``r``'s wait-delimited segments as
      ``(delta_ids, n_ops, sends, recvs, ends_with_wait)``; ``delta_ids``
      names each op's clock delta among the values a call prices (0 = the
      call overhead of a send or receive, ``1 + c`` = the memcpy of charge
      count ``charge_counts[c]``).  A rank's first segment always starts at
      t = 0.0, so when it only posts (no charge) its clocks are a prefix of
      ``ladder``, the fold of call overheads from 0.0, and its
      ``delta_ids`` is ``None``;
    * every send carries its pre-resolved receive slot
      (:func:`repro.sim.schedule.static_matching` — FIFO matching is a
      compile-time function of the schedule), its endpoints, its socket
      pair's NIC ids, lane mode and lane ids (from its
      :class:`~repro.sim.fabric.Route`), and the id of its pricing cohort:
      a distinct ``(socket pair, block count)`` whose costs a call computes
      from ``cohort_counts`` and the route's ``alpha``/``inv_beta``/
      ``link_inv_beta`` (a self-send carries a charge id instead).  A
      receive no send matches keeps its slot and simply never completes;
    * inter-stage state — per-rank clocks, per-port/NIC/lane ``next_free``
      claims that bind into later stages, pending waitall counts — lives
      in flat arrays threaded across events.

    Nothing here depends on the block size, so one plan serves every
    message size of a pattern.
    """

    __slots__ = (
        "n_ranks", "rank_segs", "wake_order", "n_slots", "n_lanes",
        "n_nodes", "messages", "blocks", "charge_counts",
        "cohort_counts", "alpha", "inv_beta", "link_inv_beta",
        "call_overhead", "memcpy_beta", "nic_overhead", "link_overhead",
        "ladder",
    )


def _compile_multi(schedule: "Schedule", machine: "Machine") -> _MultiStagePlan:
    """Build the :class:`_MultiStagePlan` of ``schedule`` on ``machine``."""
    send_slots, n_slots, _ = static_matching(schedule)
    params = machine.params
    spec = machine.spec
    rps = spec.ranks_per_socket
    n_sockets = spec.n_sockets
    table = routes_for(machine)
    routes = table.rows

    charge_ids: dict[int, int] = {}            # block count -> delta id
    cohort_ids: dict[tuple[int, int], int] = {}  # (socket key, count) -> cohort
    cohorts: list[tuple] = []                  # (count, route)

    def _charge(count):
        i = charge_ids.get(count)
        if i is None:
            charge_ids[count] = i = len(charge_ids) + 1
        return i

    rank_segs: list[tuple | None] = []
    si = 0  # global send index — rank-major op order, = static_matching's
    ri = 0  # global receive slot — same enumeration
    messages = 0
    blocks = 0
    ladder_len = 0
    for rank, ops in enumerate(schedule.ops):
        if ops is None:
            rank_segs.append(None)
            continue
        src_base = (rank // rps) * n_sockets
        segs: list[tuple] = []  # (delta ids, sends, recvs, ends_with_wait)
        ids: list[int] = []
        sends: list[tuple] = []
        recvs: list[tuple] = []
        for op in ops:
            kind = op[0]
            if kind == "wait":
                segs.append((ids, sends, recvs, True))
                ids = []
                sends = []
                recvs = []
                continue
            if kind == "charge":
                ids.append(_charge(op[1]))
                continue
            ids.append(0)
            pos = len(ids)  # accl index of the clock after this op
            if kind == "recv":
                recvs.append((pos, ri))
                ri += 1
                continue
            dst, count = op[1], op[2]
            sl = send_slots[si]
            si += 1
            messages += 1
            blocks += count
            if dst == rank:  # self-send: priced as a memcpy
                sends.append((0, pos, sl, _charge(count)))
                continue
            skey = src_base + dst // rps
            route = routes.get(skey)
            if route is None:
                route = table.resolve(machine, rank, dst, skey)
            ci = cohort_ids.get((skey, count))
            if ci is None:
                ci = cohort_ids[(skey, count)] = len(cohorts)
                cohorts.append((count, route))
            if route.tx < 0:  # same node: send port -> recv port
                sends.append((1, pos, sl, dst, ci, route.hop_extra))
            elif route.lane_mode == LANES_NONE:  # cross node: + NIC tx/rx
                sends.append((2, pos, sl, dst, ci, route.hop_extra,
                              route.tx, route.rx))
            else:  # cross group: + shared-link lanes
                sends.append((3, pos, sl, dst, ci, route.hop_extra,
                              route.tx, route.rx, route.lane_mode, route.lanes))
        if ids or not segs:
            segs.append((ids, sends, recvs, False))
        compiled: list[tuple] = []
        for ids, sends, recvs, ends_wait in segs:
            if not compiled and not any(ids):  # posts only, from t = 0.0
                ladder_len = max(ladder_len, len(ids))
                delta_ids = None
            else:
                delta_ids = tuple(ids)
            compiled.append((delta_ids, len(ids), tuple(sends), tuple(recvs),
                             ends_wait))
        rank_segs.append(tuple(compiled))

    plan = _MultiStagePlan()
    plan.n_ranks = schedule.n_ranks
    plan.rank_segs = rank_segs
    plan.wake_order = spawn_wake_order(schedule)
    plan.n_slots = n_slots
    plan.n_lanes = len(table.lane_keys)
    plan.n_nodes = spec.nodes
    plan.messages = messages
    plan.blocks = blocks
    plan.charge_counts = np.asarray(list(charge_ids), dtype=np.float64)
    plan.cohort_counts = np.asarray([c for c, _ in cohorts], dtype=np.float64)
    plan.alpha = np.asarray([r.alpha for _, r in cohorts], dtype=np.float64)
    plan.inv_beta = np.asarray([r.inv_beta for _, r in cohorts], dtype=np.float64)
    plan.link_inv_beta = np.asarray([r.link_inv_beta for _, r in cohorts],
                                    dtype=np.float64)
    plan.call_overhead = params.call_overhead
    plan.memcpy_beta = params.memcpy_beta
    plan.nic_overhead = params.nic_message_overhead
    plan.link_overhead = params.link_message_overhead
    plan.ladder = list(accumulate([params.call_overhead] * ladder_len, initial=0.0))
    return plan


def multi_plan_for(schedule: "Schedule", machine: "Machine") -> _MultiStagePlan:
    """Memoized :func:`_compile_multi` via the structural plan cache."""
    key = (structural_digest(schedule), machine_digest(machine))
    plan = PLAN_CACHE.get(key)
    if plan is None:
        plan = _compile_multi(schedule, machine)
        PLAN_CACHE.put(key, plan)
    return plan


def _price(plan: _MultiStagePlan, unit: int):
    """One call's costs: ``(values, port, nic, link)`` lists.

    ``nb = count * unit`` is exact in float64 (both factors and the product
    stay far below 2**53), and every expression below is the one the
    fabric evaluates per message, so the priced values are bit-identical.
    ``values`` is indexed by delta id, the others by cohort id.
    """
    values = np.empty(len(plan.charge_counts) + 1)
    values[0] = plan.call_overhead
    values[1:] = plan.charge_counts * unit / plan.memcpy_beta
    nb = plan.cohort_counts * unit
    dur = nb * plan.inv_beta
    port = plan.alpha + dur
    nic = plan.nic_overhead + dur
    link = plan.link_overhead + nb * plan.link_inv_beta
    return values.tolist(), port.tolist(), nic.tolist(), link.tolist()


def _execute_multi(
    plan: _MultiStagePlan,
    unit: int,
    max_sim_time: float | None,
    max_events: int | None,
) -> FastRunOutcome:
    """One run of a plan with ``unit``-byte blocks (see :class:`_MultiStagePlan`).

    The heap discipline — pushes, pops, sequence numbers, budget checks —
    is the engine's: one pop per spawn and per waitall wake, one sequence
    number per push; segment interiors use the precompiled tables.  A
    segment's clock is one strict left-to-right fold of its deltas (or the
    plan's ``ladder``, for a first segment that only posts) — the engine's
    sequential adds, bit for bit.  Receive slots run a small state machine
    replacing the posted/unexpected dict rendezvous: 0 unposted, 1 posted
    (owner still running its segment), 2 delivered before post, 3 consumed,
    4 blocked in a waitall, 5 determined while the owner was running
    (same-rank delivery).  Sends and receives are processed in two passes
    per segment: deliveries to *other* ranks happen only in the send pass
    (their relative order is preserved, so seq allocation is identical)
    and same-rank deliveries commute through the state machine — every
    completion is ``max(arrival, post clock)`` folded through order-free
    maxima, so the split is bit-exact against the engine's op-interleaved
    processing.  A slot no send matches stays at 1 or 4, so its owner
    never wakes and the run ends in the engine's deadlock report.
    """
    values, port, nic, link = _price(plan, unit)
    ladder = plan.ladder
    n = plan.n_ranks
    rank_segs = plan.rank_segs
    rank_now = [0.0] * n
    send_next = [0.0] * n
    recv_next = [0.0] * n
    nic_tx_next = [0.0] * plan.n_nodes
    nic_rx_next = [0.0] * plan.n_nodes
    lane_next = [0.0] * plan.n_lanes
    n_slots = plan.n_slots
    state = bytearray(n_slots)
    post_rt = [0.0] * n_slots
    aval = [0.0] * n_slots
    wait_remaining = [0] * n
    wait_latest = [0.0] * n
    seg_idx = [0] * n
    finished: dict[int, float] = {}

    heap: list[tuple[float, int, int]] = []
    seq = 0
    for rank in plan.wake_order:
        seq += 1
        heap.append((0.0, seq, rank))
    if len(plan.wake_order) < n:
        for rank in range(n):
            if rank_segs[rank] is None:
                finished[rank] = 0.0

    heappush = heapq.heappush
    heappop = heapq.heappop

    def _blocked_detail() -> str:
        parts = []
        for r in range(n):
            if r in finished or rank_segs[r] is None:
                continue
            rem = wait_remaining[r]
            detail = f"waitall({rem} pending)" if rem else "runnable"
            parts.append(f"rank {r} ({detail})")
        return ", ".join(parts) if parts else "none"

    max_time = float("inf") if max_sim_time is None else max_sim_time
    events = 0
    while heap:
        time, _, rank = heappop(heap)
        if time > max_time:
            raise SimTimeoutError(
                f"simulated-time budget exceeded: next event at "
                f"{time:.6e}s > max_sim_time={max_time:.6e}s "
                f"after {events} event(s); processes: {_blocked_detail()}",
                budget="sim_time", events_processed=events, limit=max_time,
            )
        events += 1
        if max_events is not None and events > max_events:
            raise SimTimeoutError(
                f"event budget exceeded: processed {events - 1} events "
                f"(max_events={max_events}); processes: {_blocked_detail()}",
                budget="events", events_processed=events - 1, limit=max_events,
            )
        now = rank_now[rank]
        if time > now:
            now = time
        segs = rank_segs[rank]
        i = seg_idx[rank]
        nseg = len(segs)
        while True:
            if i == nseg:
                rank_now[rank] = now
                finished[rank] = now
                break
            delta_ids, n_ops, sends, recvs, ends_wait = segs[i]
            i += 1
            if delta_ids is None:  # a first segment of posts only: now == 0.0
                accl = ladder
                now = ladder[n_ops]
            else:
                accl = [now]
                for d in delta_ids:
                    now += values[d]
                    accl.append(now)
            lat = 0.0
            for pos, sl in recvs:
                if state[sl]:  # == 2: delivered before post (unexpected)
                    a = aval[sl]
                    t = accl[pos]
                    c2 = a if a > t else t
                    if c2 > lat:
                        lat = c2
                    state[sl] = 3
                else:
                    post_rt[sl] = accl[pos]
                    state[sl] = 1
            for sd in sends:
                kind = sd[0]
                if kind == 2:  # cross-node: port -> NIC tx -> NIC rx -> port
                    _, pos, sl, dst, ci, hop_x, nsrc, ndst = sd
                    port_dur = port[ci]
                    nic_dur = nic[ci]
                    p = accl[pos]
                    nf = send_next[rank]
                    start = p if p > nf else nf
                    end = start + port_dur
                    send_next[rank] = end
                    if end > lat:
                        lat = end
                    pe = end
                    nf = nic_tx_next[nsrc]
                    s = start if start > nf else nf
                    e = s + nic_dur
                    if e < pe:
                        e = pe
                    nic_tx_next[nsrc] = e
                    prev = s
                    pe = e
                    nf = nic_rx_next[ndst]
                    s = prev if prev > nf else nf
                    e = s + nic_dur
                    if e < pe:
                        e = pe
                    nic_rx_next[ndst] = e
                    prev = s
                    pe = e
                    nf = recv_next[dst]
                    s = prev if prev > nf else nf
                    e = s + port_dur
                    if e < pe:
                        e = pe
                    recv_next[dst] = e
                    arrival = e + hop_x
                elif kind == 3:  # cross-group: + adaptive shared-link lanes
                    _, pos, sl, dst, ci, hop_x, nsrc, ndst, lmode, lspec = sd
                    port_dur = port[ci]
                    nic_dur = nic[ci]
                    link_dur = link[ci]
                    p = accl[pos]
                    nf = send_next[rank]
                    start = p if p > nf else nf
                    end = start + port_dur
                    send_next[rank] = end
                    if end > lat:
                        lat = end
                    pe = end
                    nf = nic_tx_next[nsrc]
                    s = start if start > nf else nf
                    e = s + nic_dur
                    if e < pe:
                        e = pe
                    nic_tx_next[nsrc] = e
                    prev = s
                    pe = e
                    if lmode == LANES_PAIR:
                        # Adaptive 2-lane pair: least-loaded lane, first
                        # minimal on ties (same tie-break as Fabric._claim),
                        # claim inlined.
                        a, b = lspec
                        ln = a if lane_next[a] <= lane_next[b] else b
                        nf = lane_next[ln]
                        s = prev if prev > nf else nf
                        e = s + link_dur
                        if e < pe:
                            e = pe
                        lane_next[ln] = e
                        prev = s
                        pe = e
                    else:
                        if lmode == LANES_OBLIVIOUS:
                            lanes = lspec
                        elif lmode == LANES_GROUP:
                            lanes = (min(lspec, key=lane_next.__getitem__),)
                        else:  # LANES_PER_HOP
                            lanes = [min(g, key=lane_next.__getitem__)
                                     for g in lspec]
                        for ln in lanes:
                            nf = lane_next[ln]
                            s = prev if prev > nf else nf
                            e = s + link_dur
                            if e < pe:
                                e = pe
                            lane_next[ln] = e
                            prev = s
                            pe = e
                    nf = nic_rx_next[ndst]
                    s = prev if prev > nf else nf
                    e = s + nic_dur
                    if e < pe:
                        e = pe
                    nic_rx_next[ndst] = e
                    prev = s
                    pe = e
                    nf = recv_next[dst]
                    s = prev if prev > nf else nf
                    e = s + port_dur
                    if e < pe:
                        e = pe
                    recv_next[dst] = e
                    arrival = e + hop_x
                elif kind == 1:  # same-node: send port -> recv port
                    _, pos, sl, dst, ci, hop_x = sd
                    port_dur = port[ci]
                    p = accl[pos]
                    nf = send_next[rank]
                    start = p if p > nf else nf
                    end = start + port_dur
                    send_next[rank] = end
                    if end > lat:
                        lat = end
                    nf = recv_next[dst]
                    s = start if start > nf else nf
                    e = s + port_dur
                    if e < end:
                        e = end
                    recv_next[dst] = e
                    arrival = e + hop_x
                else:  # kind == 0: self-send completes at post + memcpy
                    _, pos, sl, di = sd
                    dst = rank
                    arrival = accl[pos] + values[di]
                    if arrival > lat:
                        lat = arrival
                if sl >= 0:
                    st = state[sl]
                    if st == 0:
                        aval[sl] = arrival
                        state[sl] = 2
                    elif st == 4:  # owner blocked in its waitall
                        pr = post_rt[sl]
                        c2 = arrival if arrival > pr else pr
                        if c2 > wait_latest[dst]:
                            wait_latest[dst] = c2
                        rem = wait_remaining[dst] - 1
                        wait_remaining[dst] = rem
                        state[sl] = 3
                        if not rem:
                            seq += 1
                            heappush(heap, (wait_latest[dst], seq, dst))
                    else:  # st == 1: posted by this rank, still running
                        pr = post_rt[sl]
                        aval[sl] = arrival if arrival > pr else pr
                        state[sl] = 5
            if ends_wait:
                latest = now if now > lat else lat
                remaining = 0
                for pos, sl in recvs:
                    st = state[sl]
                    if st == 5:  # determined while running: fold and consume
                        c2 = aval[sl]
                        if c2 > latest:
                            latest = c2
                        state[sl] = 3
                    elif st == 1:
                        state[sl] = 4
                        remaining += 1
                seg_idx[rank] = i
                rank_now[rank] = now
                if remaining:
                    wait_remaining[rank] = remaining
                    wait_latest[rank] = latest
                else:
                    # Engine parity: an all-determined waitall still costs
                    # one scheduled wake (and one sequence number).
                    seq += 1
                    heappush(heap, (latest, seq, rank))
                break

    if len(finished) != n:
        raise DeadlockError(
            f"simulation deadlocked; blocked processes: {_blocked_detail()}"
        )
    simulated = max(finished.values(), default=0.0)
    return FastRunOutcome(
        simulated, finished, plan.messages, plan.blocks * unit, events,
    )


def execute_schedule(
    schedule: "Schedule",
    machine: "Machine",
    *,
    unit: int = 1,
    max_sim_time: float | None = None,
    max_events: int | None = None,
) -> FastRunOutcome:
    """Replay ``schedule`` on ``machine`` with ``unit``-byte blocks.

    Op byte fields count ``unit``-byte blocks: pass the message size for a
    schedule built in block counts (what ``schedule_for`` returns for
    uniform sizes) and ``1`` for one in raw bytes (allgatherv).  Every call
    runs the schedule's cached plan (:func:`multi_plan_for`), bit-identical
    to :class:`~repro.sim.engine.Engine`.  Raises the engine's own
    :class:`SimTimeoutError`/:class:`DeadlockError` with matching boundary
    semantics and deterministic blocked-rank detail.
    """
    if machine.params.jitter > 0:
        raise ValueError("fast path requires a jitter-free machine (use the engine)")
    if max_sim_time is not None and max_sim_time <= 0:
        raise ValueError(f"max_sim_time must be > 0, got {max_sim_time}")
    if max_events is not None and max_events <= 0:
        raise ValueError(f"max_events must be > 0, got {max_events}")
    if unit < 0:
        raise ValueError(f"unit must be >= 0, got {unit}")

    return _execute_multi(multi_plan_for(schedule, machine), unit,
                          max_sim_time, max_events)
