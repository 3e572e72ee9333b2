"""Engine-free schedule execution: the hybrid fast path.

:func:`execute_schedule` replays a static :class:`~repro.sim.schedule.Schedule`,
compiled by :func:`compile_schedule`, with exactly the discrete-event engine's semantics — same event heap ordering
``(time, seq, rank)``, same sequence-number allocation, same FIFO matching,
same resource-claim arithmetic over the same route rows
(:func:`~repro.sim.fabric.routes_for`) as :class:`~repro.sim.fabric.Fabric`
— but without the rank program's generator resumes, the engine's receive
slots, or per-message method dispatch.  The result is bit-identical to
the engine for every pristine run (no faults, no jitter, no tracing):
``sim_mode="auto"`` is a pure speedup.

Schedules are priced per call: every op's byte field is a count of
``unit``-byte blocks (``execute_schedule(plan, unit=m)``), so the
uniform-size schedule
:meth:`~repro.collectives.base.NeighborhoodAllgatherAlgorithm.schedule_for`
builds in 1-byte blocks serves a sweep's whole message-size axis.
Three ideas make replay fast:

* **Compile once per pattern.**  :func:`multi_plan_for` looks a set-up
  algorithm's plan up in :mod:`repro.sim.plancache` under the inputs that
  determine its schedule (backend, constructor arguments, topology,
  machine, block sizes); only on a miss does it build the schedule and
  turn it into a size-free :class:`_MultiStagePlan` — static send→receive
  matching, each send's claim stages from its socket pair's route row,
  per-op ids into the distinct pricing cohorts, and the schedule's
  deliveries, from which the runner fills the result buffers.  So a cell
  whose pattern was compiled before builds nothing.  The compiler decodes
  the schedule's per-rank encodings one rank at a time
  (:meth:`~repro.sim.schedule.Schedule.iter_ops`), so no rank's op
  tuples outlive its turn; only the plan's own tables stay.
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

One executor, :func:`_execute_multi`, replays every schedule, and it
claims every network send with one body: :meth:`Fabric._claim
<repro.sim.fabric.Fabric._claim>`'s stages in its order — the send port;
then, on a route with NICs, the TX NIC, the route's lanes when it has
any, and the RX NIC; then the receive port.  A self-send is a memcpy, as
in :meth:`Fabric.transmit <repro.sim.fabric.Fabric.transmit>`.  A receive
that no send matches stays posted and its owner blocks in its waitall, as
on the engine, so such a schedule deadlocks after the same number of
events.

Watchdog budgets (``max_sim_time``/``max_events``) are honored with the
engine's exact boundary semantics: an event with timestamp equal to
``max_sim_time`` is processed (strictly-greater trips the budget), and
processing exactly ``max_events`` events is allowed (the attempt to process
one more trips it).  Event counting is identical — one event per heap pop —
so a budgeted run trips on the same event in both paths.  The budget
validation, the two trip reports, the deadlock report and their
blocked-rank detail are the engine's own definitions (the classmethods
of :class:`~repro.sim.engine.SimTimeoutError` and
:class:`~repro.sim.engine.DeadlockError`, and
:func:`~repro.sim.engine.blocked_detail`), so both paths raise the same
text.
"""

from __future__ import annotations

import heapq
from itertools import accumulate
from typing import TYPE_CHECKING

import numpy as np

from repro.sim.engine import DeadlockError, SimTimeoutError, blocked_detail
from repro.sim.fabric import LANES_PAIR, routes_for
from repro.sim.plancache import PLAN_CACHE
from repro.sim.schedule import spawn_wake_order, static_matching

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.cluster.machine import Machine
    from repro.collectives.base import ExecutionContext, NeighborhoodAllgatherAlgorithm
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
      ``(delta_ids, n_ops, sends, recv_pos, recv_slots, ends_with_wait)``;
      ``delta_ids`` names each op's clock delta among the values a call
      prices (0 = the call overhead of a send or receive, ``1 + c`` = the
      memcpy of charge count ``charge_counts[c]``).  A rank's first segment
      always starts at t = 0.0, so when it only posts (no charge) its
      clocks are a prefix of ``ladder``, the fold of call overheads from
      0.0, and its ``delta_ids`` is ``None``;
    * every send is one ``(pos, slot, dst, price id, stages)`` tuple:
      its clock index, its pre-resolved receive slot
      (:func:`repro.sim.schedule.static_matching` — FIFO matching is a
      compile-time function of the schedule), and its socket pair's
      :class:`~repro.sim.fabric.Route` as ``(hop_extra, tx, rx,
      lane_mode, lanes)``, one tuple shared by the route's sends.  The
      price id names a pricing cohort: a distinct ``(socket pair, block
      count)`` whose costs a call computes from ``cohort_counts`` and the
      route's ``alpha``/``inv_beta``/``link_inv_beta``.  A self-send has
      no stages (None) and its memcpy's delta id as price id;
    * a segment's receives are two parallel tuples, their clock indices
      ``recv_pos`` and their slots ``recv_slots`` (the post loop zips
      them; the wait loop reads the slots only), not a tuple per receive.
      A receive no send matches keeps its slot and simply never
      completes;
    * ``deliveries[r]`` is the schedule's delivery list of rank ``r`` as
      a tuple: the source ranks whose blocks land in its receive buffer;
    * the plan holds one int object per slot number, rank id and op
      position: a slot's receive and the send that targets it share one,
      as do all sends to a rank and every delivery of a source.  About
      156 B per message on a 264-rank density-0.3 naive schedule (8 B of
      it deliveries), 66.6 MiB for the 2160-rank density-0.1 naive
      schedule;
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
        "ladder", "deliveries",
    )


def compile_schedule(schedule: "Schedule", machine: "Machine") -> _MultiStagePlan:
    """Build the :class:`_MultiStagePlan` of ``schedule`` on ``machine``.

    Raises the engine's ``ValueError`` for the first op, in rank-major
    order, that the engine would reject: a peer outside ``[0, n_ranks)`` or
    a negative byte count (counted in the schedule's blocks); and a
    ``ValueError`` for a jitter machine, which only the engine models, or
    a delivery that names no rank.  Not cached: :func:`multi_plan_for`
    caches the plans of set-up algorithms, and a hand-built schedule is
    compiled here directly.
    """
    params = machine.params
    if params.jitter > 0:
        raise ValueError("fast path requires a jitter-free machine (use the engine)")
    send_slots, n_slots, _ = static_matching(schedule)
    n = schedule.n_ranks
    spec = machine.spec
    rps = spec.ranks_per_socket
    n_sockets = spec.n_sockets
    table = routes_for(machine)
    routes = table.rows

    # The plan stores one int object per slot number, rank id and op
    # position, shared by every tuple that names it.  ``slot_ids[-1]`` is
    # the -1 of a send no receive matches.
    slot_ids = list(range(n_slots))
    slot_ids.append(-1)
    rank_ids = list(range(n))
    max_ops = max((len(ops) for ops in schedule.ops if ops), default=0)
    positions = list(range(max_ops + 1))

    charge_ids: dict[int, int] = {}  # block count -> delta id
    cohort_of: dict[tuple[int, int], tuple[int, tuple]] = {}  # -> (id, stages)
    stages_of: dict[int, tuple] = {}  # socket key -> the route's stages
    cohorts: list[tuple] = []         # (count, route)

    def _charge(count):
        i = charge_ids.get(count)
        if i is None:
            if count < 0:
                raise ValueError(f"nbytes must be >= 0, got {count}")
            charge_ids[count] = i = len(charge_ids) + 1
        return i

    rank_segs: list[tuple | None] = []
    si = 0  # global send index — rank-major op order, = static_matching's
    ri = 0  # global receive slot — same enumeration
    messages = 0
    blocks = 0
    ladder_len = 0
    for rank, ops in enumerate(schedule.iter_ops()):
        if ops is None:
            rank_segs.append(None)
            continue
        src_base = (rank // rps) * n_sockets
        segs: list[tuple] = []  # (ids, sends, recv_pos, recv_slots, ends_with_wait)
        ids: list[int] = []
        sends: list[tuple] = []
        recv_pos: list[int] = []
        recv_slots: list[int] = []
        for op in ops:
            kind = op[0]
            if kind == "wait":
                segs.append((ids, sends, recv_pos, recv_slots, True))
                ids = []
                sends = []
                recv_pos = []
                recv_slots = []
                continue
            if kind == "charge":
                ids.append(_charge(op[1]))
                continue
            ids.append(0)
            pos = positions[len(ids)]  # accl index of the clock after this op
            if kind == "recv":
                if not 0 <= op[1] < n:
                    raise ValueError(f"source rank {op[1]} out of range [0, {n})")
                recv_pos.append(pos)
                recv_slots.append(slot_ids[ri])
                ri += 1
                continue
            dst, count = op[1], op[2]
            if not 0 <= dst < n:
                raise ValueError(f"destination rank {dst} out of range [0, {n})")
            sl = slot_ids[send_slots[si]]
            si += 1
            messages += 1
            blocks += count
            if dst == rank:  # self-send: priced as a memcpy
                sends.append((pos, sl, rank_ids[dst], _charge(count), None))
                continue
            skey = src_base + dst // rps
            cohort = cohort_of.get((skey, count))
            if cohort is None:
                if count < 0:
                    raise ValueError(f"nbytes must be >= 0, got {count}")
                route = routes.get(skey)
                if route is None:
                    route = table.resolve(machine, rank, dst, skey)
                stages = stages_of.get(skey)
                if stages is None:
                    stages = stages_of[skey] = (route.hop_extra, route.tx, route.rx,
                                                route.lane_mode, route.lanes)
                cohort = cohort_of[(skey, count)] = (len(cohorts), stages)
                cohorts.append((count, route))
            ci, stages = cohort
            sends.append((pos, sl, rank_ids[dst], ci, stages))
        if ids or not segs:
            segs.append((ids, sends, recv_pos, recv_slots, False))
        compiled: list[tuple] = []
        for ids, sends, recv_pos, recv_slots, ends_wait in segs:
            if not compiled and not any(ids):  # posts only, from t = 0.0
                ladder_len = max(ladder_len, len(ids))
                delta_ids = None
            else:
                delta_ids = tuple(ids)
            compiled.append((delta_ids, len(ids), tuple(sends), tuple(recv_pos),
                             tuple(recv_slots), ends_wait))
        rank_segs.append(tuple(compiled))

    plan = _MultiStagePlan()
    plan.n_ranks = n
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
    deliveries = []
    for rank, srcs in enumerate(schedule.deliveries):
        if srcs and (min(srcs) < 0 or max(srcs) >= n):
            bad = next(src for src in srcs if not 0 <= src < n)
            raise ValueError(f"rank {rank} delivers block {bad}, out of range [0, {n})")
        deliveries.append(tuple(map(rank_ids.__getitem__, srcs)))
    plan.deliveries = deliveries
    return plan


def multi_plan_for(
    algorithm: "NeighborhoodAllgatherAlgorithm", ctx: "ExecutionContext",
) -> _MultiStagePlan:
    """The compiled plan of a set-up ``algorithm``'s schedule for ``ctx``.

    Looked up in the plan cache under
    :meth:`~repro.collectives.base.NeighborhoodAllgatherAlgorithm.plan_key`,
    which raises ``ValueError`` unless ``ctx`` carries the set-up topology
    and machine; only a miss builds the schedule (``schedule_for``) and
    compiles it.
    """
    key = algorithm.plan_key(ctx)
    plan = PLAN_CACHE.get(key)
    if plan is None:
        plan = compile_schedule(algorithm.schedule_for(ctx), ctx.machine)
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
        return blocked_detail(
            (r, wait_remaining[r]) for r in range(n) if r not in finished)

    max_time = float("inf") if max_sim_time is None else max_sim_time
    events = 0
    while heap:
        time, _, rank = heappop(heap)
        if time > max_time:
            raise SimTimeoutError.time_budget(time, max_time, events, _blocked_detail())
        if max_events is not None and events >= max_events:
            raise SimTimeoutError.event_budget(max_events, events, _blocked_detail())
        events += 1
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
            delta_ids, n_ops, sends, recv_pos, recv_slots, ends_wait = segs[i]
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
            for pos, sl in zip(recv_pos, recv_slots):
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
            for pos, sl, dst, pid, stages in sends:
                if stages is None:  # self-send: completes at post + memcpy
                    arrival = accl[pos] + values[pid]
                    if arrival > lat:
                        lat = arrival
                else:  # Fabric._claim's stages, in its order
                    hop_x, tx, rx, lmode, lanes = stages
                    port_dur = port[pid]
                    p = accl[pos]
                    nf = send_next[rank]
                    start = p if p > nf else nf
                    end = start + port_dur
                    send_next[rank] = end
                    if end > lat:
                        lat = end
                    if tx >= 0:
                        nic_dur = nic[pid]
                        nf = nic_tx_next[tx]
                        s = start if start > nf else nf
                        e = s + nic_dur
                        if e < end:
                            e = end
                        nic_tx_next[tx] = e
                        start = s
                        end = e
                        if lmode:
                            link_dur = link[pid]
                            if lmode == LANES_PAIR:
                                a, b = lanes
                                lanes = (a if lane_next[a] <= lane_next[b] else b,)
                            else:  # LANES_PER_HOP: pick every lane before claiming any
                                lanes = [min(g, key=lane_next.__getitem__) for g in lanes]
                            for ln in lanes:
                                nf = lane_next[ln]
                                s = start if start > nf else nf
                                e = s + link_dur
                                if e < end:
                                    e = end
                                lane_next[ln] = e
                                start = s
                                end = e
                        nf = nic_rx_next[rx]
                        s = start if start > nf else nf
                        e = s + nic_dur
                        if e < end:
                            e = end
                        nic_rx_next[rx] = e
                        start = s
                        end = e
                    nf = recv_next[dst]
                    s = start if start > nf else nf
                    e = s + port_dur
                    if e < end:
                        e = end
                    recv_next[dst] = e
                    arrival = e + hop_x
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
                for sl in recv_slots:
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
        raise DeadlockError.blocked(_blocked_detail())
    simulated = max(finished.values(), default=0.0)
    return FastRunOutcome(
        simulated, finished, plan.messages, plan.blocks * unit, events,
    )


def execute_schedule(
    plan: _MultiStagePlan,
    *,
    unit: int = 1,
    max_sim_time: float | None = None,
    max_events: int | None = None,
) -> FastRunOutcome:
    """Replay a compiled schedule with ``unit``-byte blocks.

    ``plan`` comes from :func:`multi_plan_for` (a set-up algorithm's
    schedule, through the plan cache) or :func:`compile_schedule` (any
    schedule, uncached).  Op byte fields count ``unit``-byte blocks: pass
    the message size for a schedule built in block counts (what
    ``schedule_for`` returns for uniform sizes) and ``1`` for one in raw
    bytes (allgatherv).  Bit-identical to
    :class:`~repro.sim.engine.Engine`; raises the engine's own
    :class:`SimTimeoutError`/:class:`DeadlockError` with matching boundary
    semantics and deterministic blocked-rank detail.
    """
    SimTimeoutError.check_budgets(max_sim_time, max_events)
    if unit < 0:
        raise ValueError(f"unit must be >= 0, got {unit}")
    return _execute_multi(plan, unit, max_sim_time, max_events)
