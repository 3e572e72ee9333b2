"""Engine-free schedule execution: the hybrid fast path.

:func:`execute_schedule` replays a static :class:`~repro.sim.schedule.Schedule`
with exactly the discrete-event engine's semantics — same event heap ordering
``(time, seq, rank)``, same sequence-number allocation, same FIFO matching,
same resource-claim arithmetic (shared with :class:`~repro.sim.fabric.Fabric`
via :func:`~repro.sim.fabric._resolve_machine_costs`) — but without generator
resumes, :class:`~repro.sim.request.Request` objects, or per-message method
dispatch.  The result is bit-identical to the engine for every pristine run
(no faults, no jitter, no tracing): ``sim_mode="auto"`` is a pure speedup.

Schedules are priced per call: every op's byte field is a count of
``unit``-byte blocks (``execute_schedule(..., unit=m)``), so the uniform-size
schedule :meth:`~repro.collectives.base.NeighborhoodAllgatherAlgorithm.schedule_for`
builds once, in 1-byte blocks, serves a sweep's whole message-size axis.
Three ideas make replay fast:

* **Compile once per pattern.**  :func:`multi_plan_for` turns a schedule
  into a size-free :class:`_MultiStagePlan` — static send→receive matching,
  per-socket-pair costs and lanes, and per-op ids into the distinct
  pricing cohorts — cached per ``(structural digest, machine digest)`` in
  :mod:`repro.sim.plancache`.
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

One executor, :func:`_execute_multi`, replays every fully matched schedule.
The scalar opcode interpreter (:func:`_interpret`) remains for the
closed-form costing and for schedules with an unmatched receive, whose
deadlock it reports with exact engine semantics.

``model_contention=False`` gives the closed-form Hockney costing
(``sim_mode="analytic"``, taken only when asked for): every message is
priced as if it were alone — ``arrival = post + max(stage durations) +
hop_extra`` — which is exact when no resource queue ever binds (see
:func:`repro.sim.schedule.contention_free`) and a lower bound otherwise
(claims only ever delay stages).

Watchdog budgets (``max_sim_time``/``max_events``) are honored with the
engine's exact boundary semantics: an event with timestamp equal to
``max_sim_time`` is processed (strictly-greater trips the budget), and
processing exactly ``max_events`` events is allowed (the attempt to process
one more trips it).  Event counting is identical — one event per heap pop —
so a budgeted run trips on the same event in both paths.
"""

from __future__ import annotations

import heapq
from collections import deque
from itertools import accumulate
from typing import TYPE_CHECKING

import numpy as np

from repro.sim.engine import DeadlockError, SimTimeoutError
from repro.sim.fabric import _machine_cost_table, _resolve_machine_costs
from repro.sim.plancache import _MISS, PLAN_CACHE, machine_digest
from repro.sim.schedule import spawn_wake_order, static_matching, structural_digest

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.cluster.machine import Machine
    from repro.sim.schedule import Schedule

# Compiled opcodes of the interpreter's priced segments (first tuple
# element).  ``key`` is the prebuilt match key ``(src, tag)`` — precomputing
# it saves one tuple allocation per message in the replay loop.  Charges
# compile to *bare floats* (their memcpy duration) rather than tuples: they
# are the most frequent op in combining schedules and a ``type(op) is
# float`` check is the cheapest dispatch CPython offers.
_SEND_SELF = 1   #: (1, dst, key, nbytes, dur)
_SEND_LOCAL = 2  #: (2, dst, key, nbytes, port_dur, hop_extra)
_SEND_NODE = 3   #: (3, dst, key, nbytes, port_dur, nic_dur, hop_extra, nsrc, ndst)
_SEND_GROUP = 4  #: (4, dst, key, nbytes, port_dur, nic_dur, link_dur, hop_extra,
                 #:  nsrc, ndst, lane_groups, fixed_lanes)
_RECV = 5        #: (5, (src, tag))
_SEND_FREE = 7   #: (7, dst, key, nbytes, port_dur, free_extra) — analytic mode

#: Tolerance contract for the analytic (closed-form) path on contention-free
#: schedules: ``|analytic - des| / des <= ANALYTIC_RTOL``.  The closed form
#: is a *lower bound* on the DES time (resource claims can only delay), and
#: for single-stage contention-free schedules it is bit-identical.  Across
#: stages the per-stage analyzer cannot exclude a straggler's claim binding
#: an early next-stage message; the calibration grid (every contention-free
#: cell the scenario generators produce, checked in
#: tests/sim/test_hybrid.py) measures a gap of exactly 0.0, and the 1%
#: headroom here bounds the residual the analysis cannot rule out.
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


def _compile(schedule: "Schedule", machine: "Machine", model_contention: bool,
             unit: int):
    """Price every op and split each rank's list into wait-delimited segments.

    Op byte fields are scaled by ``unit``.  Returns ``(segments, n_lanes)``;
    ``segments[r]`` is ``None`` or a list of ``(ops_tuple, ends_with_wait)``.
    All float constants are computed here — vectorized over the distinct
    ``(socket plan, nbytes)`` cohorts — so the replay loop's only arithmetic
    is claim max/add chains.
    """
    params = machine.params
    spec = machine.spec
    rps = spec.ranks_per_socket
    n_sockets = spec.n_sockets
    adaptive = params.adaptive_routing
    memcpy_beta = params.memcpy_beta
    nic_overhead = params.nic_message_overhead
    link_overhead = params.link_message_overhead
    costs = _machine_cost_table(machine)

    # Pass 1: distinct pricing cohorts across the whole schedule.
    distinct_send: dict[tuple[int, int], tuple] = {}
    distinct_charge: set[int] = set()
    for rank, ops in enumerate(schedule.ops):
        if not ops:
            continue
        src_base = (rank // rps) * n_sockets
        for op in ops:
            kind = op[0]
            if kind == "send":
                dst, nbytes = op[1], op[2] * unit
                if dst == rank:
                    distinct_charge.add(nbytes)  # self-send = memcpy pricing
                    continue
                key = src_base + dst // rps
                entry = costs.get(key)
                if entry is None:
                    entry = _resolve_machine_costs(machine, adaptive, rank, dst)
                    costs[key] = entry
                distinct_send.setdefault((key, nbytes), entry)
            elif kind == "charge":
                distinct_charge.add(op[1] * unit)

    # Pass 2: one numpy sweep prices every cohort.  Elementwise float64 ops
    # are IEEE-identical to the fabric's scalar expressions, so the replay
    # inherits bit-exact per-message costs.
    charge_vals = sorted(distinct_charge)
    charge_price = dict(zip(
        charge_vals,
        (np.asarray(charge_vals, dtype=np.float64) / memcpy_beta).tolist(),
    ))
    pairs = list(distinct_send.items())
    price: dict[tuple[int, int], tuple] = {}
    if pairs:
        nb = np.asarray([pk[1] for pk, _ in pairs], dtype=np.float64)
        alpha = np.asarray([entry[1] for _, entry in pairs])
        inv_beta = np.asarray([entry[3] for _, entry in pairs])
        link_inv_beta = np.asarray([entry[4] for _, entry in pairs])
        dur = nb * inv_beta
        port_dur = (alpha + dur).tolist()
        nic_dur = (nic_overhead + dur).tolist()
        link_dur = (link_overhead + nb * link_inv_beta).tolist()
        for i, (pk, entry) in enumerate(pairs):
            price[pk] = (entry, port_dur[i], nic_dur[i], link_dur[i])

    # Lane keys -> dense indices into the replay's float state.
    lane_index: dict = {}

    def _lane(k):
        i = lane_index.get(k)
        if i is None:
            lane_index[k] = i = len(lane_index)
        return i

    lanes_by_key: dict[int, tuple] = {}  # socket key -> (groups, fixed)

    # Pass 3: emit priced opcode segments.
    segments: list[list[tuple] | None] = []
    for rank, ops in enumerate(schedule.ops):
        if ops is None:
            segments.append(None)
            continue
        src_base = (rank // rps) * n_sockets
        segs: list[tuple] = []
        cur: list[tuple] = []
        for op in ops:
            kind = op[0]
            if kind == "wait":
                segs.append((tuple(cur), True))
                cur = []
            elif kind == "charge":
                cur.append(charge_price[op[1] * unit])
            elif kind == "recv":
                cur.append((_RECV, (op[1], op[2])))
            else:  # send
                dst, nbytes, tag = op[1], op[2] * unit, op[3]
                key = (rank, tag)
                if dst == rank:
                    cur.append((_SEND_SELF, dst, key, nbytes, charge_price[nbytes]))
                    continue
                skey = src_base + dst // rps
                entry, pd, nd, ld = price[(skey, nbytes)]
                hop_extra, nsrc, ndst = entry[2], entry[5], entry[6]
                group_keys, fixed_keys = entry[7], entry[8]
                has_lanes = group_keys is not None or bool(fixed_keys)
                if not model_contention:
                    if nsrc < 0:
                        extra = pd
                    elif has_lanes:
                        extra = max(pd, nd, ld)
                    else:
                        extra = pd if pd > nd else nd
                    cur.append((_SEND_FREE, dst, key, nbytes, pd, extra + hop_extra))
                elif nsrc < 0:
                    cur.append((_SEND_LOCAL, dst, key, nbytes, pd, hop_extra))
                elif not has_lanes:
                    cur.append((_SEND_NODE, dst, key, nbytes, pd, nd,
                                hop_extra, nsrc, ndst))
                else:
                    lanes = lanes_by_key.get(skey)
                    if lanes is None:
                        if group_keys is not None:
                            lanes = (tuple(tuple(_lane(k) for k in g)
                                           for g in group_keys), ())
                        else:
                            lanes = (None, tuple(_lane(k) for k in fixed_keys))
                        lanes_by_key[skey] = lanes
                    cur.append((_SEND_GROUP, dst, key, nbytes, pd, nd, ld,
                                hop_extra, nsrc, ndst, lanes[0], lanes[1]))
        if cur or not segs:
            segs.append((tuple(cur), False))
        segments.append(segs)
    return segments, len(lane_index)


def compiled_for(schedule: "Schedule", machine: "Machine", model_contention: bool,
                 unit: int):
    """Memoized :func:`_compile` (the interpreter's priced segments).

    The key is ``(schedule structural digest, machine digest, flavor,
    unit)`` — see :mod:`repro.sim.plancache` — so compilation is shared
    across runs, across alternating machines, and across distinct
    ``Schedule`` objects describing the same pattern.  Only the interpreter
    reads these segments; the exact executor prices per call instead.
    """
    key = (structural_digest(schedule), machine_digest(machine),
           "segments", model_contention, unit)
    entry = PLAN_CACHE.get(key)
    if entry is _MISS:
        entry = _compile(schedule, machine, model_contention, unit)
        PLAN_CACHE.put(key, entry)
    return entry


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
      pair's NIC ids and lanes, and the id of its pricing cohort: a distinct
      ``(socket pair, block count)`` whose costs a call computes from
      ``cohort_counts`` and the pair's ``alpha``/``inv_beta``/
      ``link_inv_beta`` (a self-send carries a charge id instead);
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


def _compile_multi(schedule: "Schedule", machine: "Machine"):
    """Build a :class:`_MultiStagePlan`, or ``None`` when a receive has no
    matching send (the run deadlocks; the scalar interpreter reports it
    with exact engine semantics)."""
    send_slots, n_slots, fully_matched = static_matching(schedule)
    if not fully_matched:
        return None
    params = machine.params
    spec = machine.spec
    rps = spec.ranks_per_socket
    n_sockets = spec.n_sockets
    adaptive = params.adaptive_routing
    costs = _machine_cost_table(machine)

    charge_ids: dict[int, int] = {}            # block count -> delta id
    cohort_ids: dict[tuple[int, int], int] = {}  # (socket key, count) -> cohort
    cohorts: list[tuple[int, tuple]] = []      # (count, cost entry) per cohort
    lane_index: dict = {}
    lanes_by_key: dict[int, tuple] = {}        # socket key -> (lmode, lspec)

    def _charge(count):
        i = charge_ids.get(count)
        if i is None:
            charge_ids[count] = i = len(charge_ids) + 1
        return i

    def _lane(k):
        i = lane_index.get(k)
        if i is None:
            lane_index[k] = i = len(lane_index)
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
            entry = costs.get(skey)
            if entry is None:
                entry = _resolve_machine_costs(machine, adaptive, rank, dst)
                costs[skey] = entry
            ci = cohort_ids.get((skey, count))
            if ci is None:
                ci = cohort_ids[(skey, count)] = len(cohorts)
                cohorts.append((count, entry))
            hop_extra, nsrc, ndst = entry[2], entry[5], entry[6]
            group_keys, fixed_keys = entry[7], entry[8]
            if nsrc < 0:  # same node: send port -> recv port
                sends.append((1, pos, sl, dst, ci, hop_extra))
            elif group_keys is None and not fixed_keys:  # cross-node
                sends.append((2, pos, sl, dst, ci, hop_extra, nsrc, ndst))
            else:  # cross-group — pre-classify the lane choice shape
                lanes = lanes_by_key.get(skey)
                if lanes is None:
                    if group_keys is None:
                        lanes = (0, tuple(_lane(k) for k in fixed_keys))
                    elif len(group_keys) == 1:
                        g = tuple(_lane(k) for k in group_keys[0])
                        # adaptive: the 2-lane pair (Dragonfly+ default)
                        # gets its own inlined fast case at runtime
                        lanes = (1 if len(g) == 2 else 2, g)
                    else:  # per-hop choices
                        lanes = (3, tuple(tuple(_lane(k) for k in g)
                                          for g in group_keys))
                    lanes_by_key[skey] = lanes
                sends.append((3, pos, sl, dst, ci, hop_extra, nsrc, ndst,
                              lanes[0], lanes[1]))
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
    plan.n_lanes = len(lane_index)
    plan.n_nodes = spec.nodes
    plan.messages = messages
    plan.blocks = blocks
    plan.charge_counts = np.asarray(list(charge_ids), dtype=np.float64)
    plan.cohort_counts = np.asarray([c for c, _ in cohorts], dtype=np.float64)
    plan.alpha = np.asarray([e[1] for _, e in cohorts], dtype=np.float64)
    plan.inv_beta = np.asarray([e[3] for _, e in cohorts], dtype=np.float64)
    plan.link_inv_beta = np.asarray([e[4] for _, e in cohorts], dtype=np.float64)
    plan.call_overhead = params.call_overhead
    plan.memcpy_beta = params.memcpy_beta
    plan.nic_overhead = params.nic_message_overhead
    plan.link_overhead = params.link_message_overhead
    plan.ladder = list(accumulate([params.call_overhead] * ladder_len, initial=0.0))
    return plan


def multi_plan_for(schedule: "Schedule", machine: "Machine"):
    """Memoized :func:`_compile_multi` via the structural plan cache.

    ``None`` (an unmatched receive) is cached too: deciding it costs a full
    matching walk.
    """
    key = (structural_digest(schedule), machine_digest(machine), "multi")
    plan = PLAN_CACHE.get(key)
    if plan is _MISS:
        plan = _compile_multi(schedule, machine)
        PLAN_CACHE.put(key, plan)
    return plan


def _price(plan: _MultiStagePlan, unit: int):
    """One call's costs: ``(values, port, nic, link)`` lists.

    ``nb = count * unit`` is exact in float64 (both factors and the product
    stay far below 2**53), and every expression below is the one the
    fabric evaluates per message, so the priced values are bit-identical.
    ``values`` is indexed by delta id, ``port``/``nic``/``link`` by cohort
    id.
    """
    values = np.empty(len(plan.charge_counts) + 1)
    values[0] = plan.call_overhead
    values[1:] = plan.charge_counts * unit / plan.memcpy_beta
    nb = plan.cohort_counts * unit
    dur = nb * plan.inv_beta
    return (
        values.tolist(),
        (plan.alpha + dur).tolist(),
        (plan.nic_overhead + dur).tolist(),
        (plan.link_overhead + nb * plan.link_inv_beta).tolist(),
    )


def _execute_multi(
    plan: _MultiStagePlan,
    unit: int,
    max_sim_time: float | None,
    max_events: int | None,
) -> FastRunOutcome:
    """One run of a plan with ``unit``-byte blocks (see :class:`_MultiStagePlan`).

    The heap discipline — pushes, pops, sequence numbers, budget checks —
    is the scalar interpreter's, verbatim; segment interiors use the
    precompiled tables.  A segment's clock is one strict left-to-right fold
    of its deltas (or the plan's ``ladder``, for a first segment that only
    posts) — the engine's sequential adds, bit for bit.  Receive slots run
    a small state machine replacing the posted/unexpected dict rendezvous:
    0 unposted, 1 posted (owner still running its segment), 2 delivered
    before post, 3 consumed, 4 blocked in a waitall, 5 determined while the
    owner was running (same-rank delivery).  Sends and receives are processed in two passes per
    segment: deliveries to *other* ranks happen only in the send pass
    (their relative order is preserved, so seq allocation is identical)
    and same-rank deliveries commute through the state machine — every
    completion is ``max(arrival, post clock)`` folded through order-free
    maxima, so the split is bit-exact against the engine's op-interleaved
    processing.
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
                    if lmode == 1:
                        # Adaptive 2-lane pair: least-loaded lane, first
                        # minimal on ties (same tie-break as Fabric.transmit),
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
                        if lmode == 0:
                            lanes = lspec
                        elif lmode == 2:
                            lanes = (min(lspec, key=lane_next.__getitem__),)
                        else:
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
    model_contention: bool = True,
) -> FastRunOutcome:
    """Replay ``schedule`` on ``machine`` with ``unit``-byte blocks.

    Op byte fields count ``unit``-byte blocks: pass the message size for a
    schedule built in block counts (what ``schedule_for`` returns for
    uniform sizes) and ``1`` for one in raw bytes (allgatherv).  Bit-
    identical to :class:`~repro.sim.engine.Engine` with
    ``model_contention=True``; the closed-form Hockney costing with
    ``False`` (see module docstring).  Raises the engine's own
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

    if model_contention:
        plan = multi_plan_for(schedule, machine)
        if plan is not None:
            return _execute_multi(plan, unit, max_sim_time, max_events)
    # The scalar interpreter covers the closed-form costing and schedules
    # with an unmatched receive (it reports their deadlock exactly).
    return _interpret(schedule, machine, max_sim_time, max_events,
                      model_contention, unit)


def _interpret(
    schedule: "Schedule",
    machine: "Machine",
    max_sim_time: float | None,
    max_events: int | None,
    model_contention: bool,
    unit: int,
) -> FastRunOutcome:
    """The scalar opcode interpreter — the fast path's reference tier.

    Handles what the executor does not: analytic costing
    (``model_contention=False``) and schedules with unmatched receives
    (deadlock reporting with exact engine semantics).  It is also the
    oracle the executor equivalence tests compare against, so it accepts
    every schedule.
    """
    segments, n_lanes = compiled_for(schedule, machine, model_contention, unit)
    n = schedule.n_ranks
    call_overhead = machine.params.call_overhead
    n_nodes = machine.spec.nodes

    rank_now = [0.0] * n
    send_next = [0.0] * n
    recv_next = [0.0] * n
    nic_tx_next = [0.0] * n_nodes
    nic_rx_next = [0.0] * n_nodes
    lane_next = [0.0] * n_lanes
    # Matching state: per-dst dicts keyed by (src, tag).  A pending receive
    # is a mutable record [post_time, completion, owner_is_waiting].
    posted: list[dict] = [dict() for _ in range(n)]
    unexpected: list[dict] = [dict() for _ in range(n)]
    wait_remaining = [0] * n
    wait_latest = [0.0] * n
    seg_idx = [0] * n
    finished: dict[int, float] = {}
    messages = 0
    bytes_total = 0

    heap: list[tuple[float, int, int]] = []
    seq = 0
    # Spawn order and sequence allocation mirror Engine.spawn_all exactly:
    # one event (and one seq) per rank with a non-None program, rank order.
    for rank in range(n):
        if segments[rank] is None:
            finished[rank] = 0.0
        else:
            seq += 1
            heap.append((0.0, seq, rank))

    heappush = heapq.heappush
    heappop = heapq.heappop

    def _deliver(dst: int, key: tuple[int, int], arrival: float) -> None:
        nonlocal seq
        table = posted[dst]
        q = table.get(key)
        if q:
            rec = q.popleft()
            if not q:
                del table[key]
            p = rec[0]
            completion = arrival if arrival > p else p
            if rec[2]:  # owner blocked in a waitall on this receive
                if completion > wait_latest[dst]:
                    wait_latest[dst] = completion
                r = wait_remaining[dst] - 1
                wait_remaining[dst] = r
                if not r:
                    seq += 1
                    heappush(heap, (wait_latest[dst], seq, dst))
            else:
                rec[1] = completion
        else:
            tu = unexpected[dst]
            uq = tu.get(key)
            if uq is None:
                tu[key] = uq = deque()
            uq.append(arrival)

    def _blocked_detail() -> str:
        parts = []
        for r in range(n):
            if r in finished or segments[r] is None:
                continue
            rem = wait_remaining[r]
            state = f"waitall({rem} pending)" if rem else "runnable"
            parts.append(f"rank {r} ({state})")
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
        segs = segments[rank]
        i = seg_idx[rank]
        nseg = len(segs)
        while True:
            if i == nseg:
                rank_now[rank] = now
                finished[rank] = now
                break
            ops, has_wait = segs[i]
            i += 1
            # Online waitall folding: ``lat`` accumulates the max over
            # determined completions as they happen (max is order-free, so
            # this is bit-identical to the engine's fold-at-wait);
            # ``pend`` collects only still-pending receive records.
            lat = 0.0
            pend: list = []
            unexpected_r = unexpected[rank]
            posted_r = posted[rank]
            for op in ops:
                if op.__class__ is float:  # charge (memcpy)
                    now += op
                    continue
                code = op[0]
                if code == _RECV:
                    now += call_overhead
                    key = op[1]
                    uq = unexpected_r.get(key)
                    if uq:
                        arrival = uq.popleft()
                        if not uq:
                            del unexpected_r[key]
                        c = arrival if arrival > now else now
                        if c > lat:
                            lat = c
                    else:
                        rec = [now, None, False]
                        pq = posted_r.get(key)
                        if pq is None:
                            posted_r[key] = pq = deque()
                        pq.append(rec)
                        pend.append(rec)
                elif code == _SEND_NODE:
                    now += call_overhead
                    dst = op[1]
                    port_dur = op[4]
                    nic_dur = op[5]
                    nf = send_next[rank]
                    start = now if now > nf else nf
                    end = start + port_dur
                    send_next[rank] = end
                    if end > lat:
                        lat = end
                    pe = end
                    nf = nic_tx_next[op[7]]
                    s = start if start > nf else nf
                    e = s + nic_dur
                    if e < pe:
                        e = pe
                    nic_tx_next[op[7]] = e
                    prev = s
                    pe = e
                    nf = nic_rx_next[op[8]]
                    s = prev if prev > nf else nf
                    e = s + nic_dur
                    if e < pe:
                        e = pe
                    nic_rx_next[op[8]] = e
                    prev = s
                    pe = e
                    nf = recv_next[dst]
                    s = prev if prev > nf else nf
                    e = s + port_dur
                    if e < pe:
                        e = pe
                    recv_next[dst] = e
                    messages += 1
                    bytes_total += op[3]
                    _deliver(dst, op[2], e + op[6])
                elif code == _SEND_GROUP:
                    now += call_overhead
                    dst = op[1]
                    port_dur = op[4]
                    nic_dur = op[5]
                    link_dur = op[6]
                    nf = send_next[rank]
                    start = now if now > nf else nf
                    end = start + port_dur
                    send_next[rank] = end
                    if end > lat:
                        lat = end
                    pe = end
                    nf = nic_tx_next[op[8]]
                    s = start if start > nf else nf
                    e = s + nic_dur
                    if e < pe:
                        e = pe
                    nic_tx_next[op[8]] = e
                    prev = s
                    pe = e
                    groups = op[10]
                    if groups is None:
                        lanes = op[11]
                    elif len(groups) == 1:
                        # Adaptive: least-loaded lane, first minimal on ties
                        # (same tie-break as Fabric.transmit).
                        group = groups[0]
                        if len(group) == 2:
                            a = group[0]
                            b = group[1]
                            lanes = ((a if lane_next[a] <= lane_next[b] else b),)
                        else:
                            lanes = (min(group, key=lane_next.__getitem__),)
                    else:
                        lanes = [min(g, key=lane_next.__getitem__) for g in groups]
                    for ln in lanes:
                        nf = lane_next[ln]
                        s = prev if prev > nf else nf
                        e = s + link_dur
                        if e < pe:
                            e = pe
                        lane_next[ln] = e
                        prev = s
                        pe = e
                    nf = nic_rx_next[op[9]]
                    s = prev if prev > nf else nf
                    e = s + nic_dur
                    if e < pe:
                        e = pe
                    nic_rx_next[op[9]] = e
                    prev = s
                    pe = e
                    nf = recv_next[dst]
                    s = prev if prev > nf else nf
                    e = s + port_dur
                    if e < pe:
                        e = pe
                    recv_next[dst] = e
                    messages += 1
                    bytes_total += op[3]
                    _deliver(dst, op[2], e + op[7])
                elif code == _SEND_LOCAL:
                    now += call_overhead
                    dst = op[1]
                    port_dur = op[4]
                    nf = send_next[rank]
                    start = now if now > nf else nf
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
                    messages += 1
                    bytes_total += op[3]
                    _deliver(dst, op[2], e + op[5])
                elif code == _SEND_SELF:
                    now += call_overhead
                    done = now + op[4]
                    if done > lat:
                        lat = done
                    messages += 1
                    bytes_total += op[3]
                    _deliver(op[1], op[2], done)
                else:  # _SEND_FREE: analytic, contention ignored
                    now += call_overhead
                    done = now + op[4]
                    if done > lat:
                        lat = done
                    messages += 1
                    bytes_total += op[3]
                    _deliver(op[1], op[2], now + op[5])
            if has_wait:
                latest = now if now > lat else lat
                remaining = 0
                for rec in pend:
                    c = rec[1]
                    if c is None:
                        rec[2] = True
                        remaining += 1
                    elif c > latest:
                        latest = c
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
    return FastRunOutcome(simulated, finished, messages, bytes_total, events)
