"""Message transit-time computation over the machine model.

A message from ``src`` to ``dst`` flows through a pipeline of serialized
resources:

    send port -> [node TX NIC] -> [shared bottleneck links...] -> [node RX NIC] -> recv port

Each stage is exclusively occupied for the message's serialization time on
that stage (cut-through: a stage may start as soon as the previous stage
started, but stages never finish before their upstream).  The message
arrives at the receiver at the pipeline's end plus the path startup latency.
Uncontended, this reduces exactly to Hockney's ``alpha + m/beta``; under
load, queueing at ports/NICs/global links produces the serialization and
congestion effects the paper's Section IV describes.

Everything about a message's pipeline except its byte count and the
adaptive lane choice is determined by its (socket, socket) pair: its
:class:`Route`.  :func:`routes_for` resolves each route once per machine
structure (:func:`~repro.sim.plancache.machine_digest`), so equal machines
share one table, and the two readers of the pipeline take it from there:
:class:`Fabric` (the engine's claims) and the fast path's compiler
(:mod:`repro.sim.fastpath`).  A claim reads and writes
plain floats in flat lists indexed by rank, node and lane id — the fast
path executor's state layout — which keeps paper-scale sweeps (millions of
messages) feasible in pure Python.
"""

from __future__ import annotations

import math
from collections import OrderedDict
from dataclasses import dataclass
from typing import TYPE_CHECKING, Hashable

import numpy as np

from repro.cluster.machine import Machine
from repro.cluster.spec import LinkClass
from repro.sim.plancache import machine_digest

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.faults import FaultInjector


@dataclass(slots=True)
class MessageTiming:
    """Timing of one message: when the sender's port frees, when data lands.

    ``arrival`` is ``math.inf`` for a message permanently lost under a fault
    plan (retry budget exhausted); ``attempts`` counts transmissions
    including the successful (or final dropped) one.
    """

    send_complete: float
    arrival: float
    link_class: LinkClass
    attempts: int = 1

    @property
    def lost(self) -> bool:
        return self.arrival == math.inf


#: :attr:`Route.lane_mode` values: how a message claims the route's lanes.
LANES_NONE = 0       #: no shared link
LANES_OBLIVIOUS = 1  #: every lane of ``lanes`` (hash routing)
LANES_PAIR = 2       #: the less loaded of the two lanes in ``lanes``
LANES_GROUP = 3      #: the least loaded lane in ``lanes``
LANES_PER_HOP = 4    #: the least loaded lane of each group in ``lanes``


@dataclass(slots=True)
class Route:
    """The pipeline of every message from one socket to another.

    ``tx``/``rx`` are the sending and receiving node's NIC ids, ``-1`` on an
    intra-node path.  ``lanes`` holds ids into :attr:`RouteTable.lane_keys`
    (a tuple of lane groups under ``LANES_PER_HOP``), claimed as
    ``lane_mode`` says: oblivious routing claims every lane the network
    hashes the path onto
    (:meth:`~repro.cluster.network.NetworkTopology.shared_link_keys`),
    adaptive routing the least loaded lane (of each hop, under
    ``LANES_PER_HOP``), the first one on ties.
    """

    link_class: LinkClass
    alpha: float
    hop_extra: float
    inv_beta: float
    link_inv_beta: float
    tx: int
    rx: int
    lane_mode: int
    lanes: tuple


class RouteTable:
    """One machine's routes, resolved lazily, one per socket pair.

    ``rows`` maps ``src_socket * n_sockets + dst_socket`` to its
    :class:`Route`; ``lane_keys[i]`` is the network's key of lane id ``i``,
    numbered in first-resolution order.  The table holds no reference to
    its machine, so the memo in :func:`routes_for` never keeps one alive.
    """

    __slots__ = ("rows", "lane_keys", "_lane_ids")

    def __init__(self) -> None:
        self.rows: dict[int, Route] = {}
        self.lane_keys: list[Hashable] = []
        self._lane_ids: dict[Hashable, int] = {}

    def _ids(self, keys) -> tuple[int, ...]:
        ids = self._lane_ids
        out = []
        for k in keys:
            i = ids.get(k)
            if i is None:
                ids[k] = i = len(self.lane_keys)
                self.lane_keys.append(k)
            out.append(i)
        return tuple(out)

    def resolve(self, machine: Machine, src: int, dst: int, key: int) -> Route:
        """Resolve and store the route of ``src``'s socket to ``dst``'s.

        ``src != dst``; ``key`` is their socket-pair key.
        """
        params = machine.params
        cls = machine.link_class(src, dst)
        cost = params.cost(cls)
        tx = rx = -1
        link_inv_beta = 0.0
        mode = LANES_NONE
        lanes: tuple = ()
        if cls in (LinkClass.INTER_NODE, LinkClass.INTER_GROUP):
            spec = machine.spec
            tx, rx = spec.node_of(src), spec.node_of(dst)
            if cls is LinkClass.INTER_GROUP:
                link_inv_beta = 1.0 / params.cost(LinkClass.INTER_GROUP).beta
                network = machine.network
                if not params.adaptive_routing:
                    lanes = self._ids(network.shared_link_keys(tx, rx))
                    if lanes:
                        mode = LANES_OBLIVIOUS
                else:
                    groups = tuple(self._ids(g) for g in network.link_choices(tx, rx))
                    if len(groups) != 1:
                        mode, lanes = LANES_PER_HOP, groups
                    else:
                        (lanes,) = groups
                        mode = LANES_PAIR if len(lanes) == 2 else LANES_GROUP
        route = Route(cls, cost.alpha, machine.hop_extra_alpha(src, dst),
                      1.0 / cost.beta, link_inv_beta, tx, rx, mode, lanes)
        self.rows[key] = route
        return route


#: Route tables by machine digest, least recently used first.  Every
#: structurally equal machine shares one table; the bound keeps digests of
#: machines long gone from holding tables forever.
_ROUTE_TABLES: OrderedDict[str, RouteTable] = OrderedDict()
_ROUTE_TABLES_MAX = 8


def routes_for(machine: Machine) -> RouteTable:
    """The route table shared by every reader of ``machine``'s pipeline."""
    key = machine_digest(machine)
    table = _ROUTE_TABLES.get(key)
    if table is not None:
        _ROUTE_TABLES.move_to_end(key)
        return table
    table = _ROUTE_TABLES[key] = RouteTable()
    if len(_ROUTE_TABLES) > _ROUTE_TABLES_MAX:
        _ROUTE_TABLES.popitem(last=False)
    return table


#: Next-free time of a resource no message has listed yet.  It claims like
#: 0.0, since every post time is >= 0.0.
_UNLISTED = -math.inf


class Fabric:
    """Prices and schedules every message of a simulation run.

    ``noise_seed`` drives the optional latency jitter
    (:attr:`HockneyParameters.jitter`); with jitter 0 it is unused and the
    fabric is exactly deterministic.

    ``faults`` installs a :class:`~repro.sim.faults.FaultInjector`: every
    transmission is routed through :meth:`_transmit_faulty` (perturbed
    costs, probabilistic drop, timeout/backoff retransmission).  Both paths
    claim the pipeline through :meth:`_claim`.
    """

    def __init__(
        self,
        machine: Machine,
        noise_seed: int = 0,
        faults: "FaultInjector | None" = None,
    ) -> None:
        self.machine = machine
        params = machine.params
        self._jitter = params.jitter
        self._noise = np.random.default_rng(noise_seed) if self._jitter > 0 else None
        #: Fault injector (None = pristine fabric).
        self._faults = faults
        spec = machine.spec
        self._ranks_per_socket = spec.ranks_per_socket
        self._n_sockets = spec.n_sockets
        self._memcpy_beta = params.memcpy_beta
        self._nic_overhead = params.nic_message_overhead
        self._link_overhead = params.link_message_overhead
        self._table = routes_for(machine)
        # The routes this fabric has used, by socket-pair key.
        self._routes: dict[int, Route] = {}
        # Next-free and busy time per send port, receive port, TX NIC, RX
        # NIC and lane id.  A resource is listed (reported by utilization())
        # once its next-free time is finite: ports and NICs from their first
        # claim, lanes from their route's first use — every lane an adaptive
        # route could choose, as the lanes it competes for.
        n, nodes = spec.n_ranks, spec.nodes
        self._send_next = [_UNLISTED] * n
        self._send_busy = [0.0] * n
        self._recv_next = [_UNLISTED] * n
        self._recv_busy = [0.0] * n
        self._tx_next = [_UNLISTED] * nodes
        self._tx_busy = [0.0] * nodes
        self._rx_next = [_UNLISTED] * nodes
        self._rx_busy = [0.0] * nodes
        self._lane_next: list[float] = []
        self._lane_busy: list[float] = []

    def _use_route(self, src: int, dst: int, key: int) -> Route:
        """First use of a socket pair's route by this fabric: list its lanes."""
        table = self._table
        route = table.rows.get(key)
        if route is None:
            route = table.resolve(self.machine, src, dst, key)
        if route.lane_mode:
            lane_next = self._lane_next
            grow = len(table.lane_keys) - len(lane_next)
            if grow > 0:
                lane_next.extend([_UNLISTED] * grow)
                self._lane_busy.extend([0.0] * grow)
            lanes = route.lanes
            if route.lane_mode == LANES_PER_HOP:
                lanes = [ln for group in lanes for ln in group]
            for ln in lanes:
                if lane_next[ln] == _UNLISTED:
                    lane_next[ln] = 0.0
        self._routes[key] = route
        return route

    # --------------------------------------------------------------- schedule
    def transmit(self, src: int, dst: int, nbytes: int, post_time: float) -> MessageTiming:
        """Schedule a message; claims all resources and returns its timing.

        Endpoint ports serialize the full Hockney cost ``alpha + m/beta``
        per message — the paper's single-port assumption (each rank sends
        or receives one message at a time, paying startup per message).
        Node NICs serialize ``nic_message_overhead + m/beta`` (message-rate
        limit), producing the node-level serialization of the paper's
        Eq. (5); shared global links serialize bandwidth.
        """
        if src == dst:
            dur = nbytes / self._memcpy_beta
            done = post_time + dur
            return MessageTiming(done, done, LinkClass.SELF)

        rps = self._ranks_per_socket
        key = (src // rps) * self._n_sockets + (dst // rps)
        route = self._routes.get(key)
        if route is None:
            route = self._use_route(src, dst, key)

        if self._faults is not None:
            return self._transmit_faulty(route, src, dst, nbytes, post_time)

        alpha = route.alpha
        hop_extra = route.hop_extra
        if self._noise is not None:
            noise = 1.0 + self._jitter * float(self._noise.random())
            alpha *= noise
            hop_extra *= noise
        send_complete, pipeline_end = self._claim(
            route, src, dst, nbytes, post_time, alpha, route.inv_beta,
            route.link_inv_beta,
        )
        return MessageTiming(send_complete, pipeline_end + hop_extra, route.link_class)

    # ----------------------------------------------------------------- faults
    def _transmit_faulty(
        self, route: Route, src: int, dst: int, nbytes: int, post_time: float
    ) -> MessageTiming:
        """Fault-aware transmit: perturbed costs, drop + timeout/backoff retry.

        Each attempt claims the full resource pipeline (a dropped message
        still traveled — loss is detected at the endpoint via a missing
        ack), so retransmission costs are charged in simulated time.  When
        the retry budget runs out the message is lost: ``arrival`` is
        ``inf`` and the engine never delivers it.
        """
        faults = self._faults
        cls = route.link_class
        retry = faults.retry
        attempt = 1
        t = post_time
        while True:
            alpha, hop_extra, inv_beta, link_inv_beta = faults.perturb(
                cls, t, route.alpha, route.hop_extra, route.inv_beta,
                route.link_inv_beta,
            )
            if self._noise is not None:
                noise = 1.0 + self._jitter * float(self._noise.random())
                alpha *= noise
                hop_extra *= noise
            send_complete, pipeline_end = self._claim(
                route, src, dst, nbytes, t, alpha, inv_beta, link_inv_beta
            )
            if not faults.should_drop(cls, t):
                if attempt > 1:
                    faults.retransmissions += attempt - 1
                return MessageTiming(
                    send_complete, pipeline_end + hop_extra, cls, attempt
                )
            faults.drops += 1
            if attempt > retry.max_retries:
                faults.messages_lost += 1
                return MessageTiming(send_complete, math.inf, cls, attempt)
            t = send_complete + retry.delay_after(attempt)
            attempt += 1

    def _claim(
        self,
        route: Route,
        src: int,
        dst: int,
        nbytes: int,
        post_time: float,
        alpha: float,
        inv_beta: float,
        link_inv_beta: float,
    ) -> tuple[float, float]:
        """Claim ``route``'s pipeline once; returns ``(send_complete, end)``.

        Invariants (see docs/ARCHITECTURE.md): claims are made in event
        order, stages are claimed upstream-to-downstream, and a stage
        extended by upstream streaming (cut-through) credits the extension
        to its busy time, added after the stage's own duration.  Each
        stage is the fast path executor's recurrence, bit for bit.
        """
        dur = nbytes * inv_beta
        port_dur = alpha + dur

        # Sender port.  The first stage can never be outrun by upstream
        # data, so no cut-through adjustment is needed here.
        nf = self._send_next[src]
        start = post_time if post_time > nf else nf
        end = start + port_dur
        self._send_next[src] = end
        self._send_busy[src] += port_dur
        send_complete = end

        tx = route.tx
        if tx >= 0:
            nic_dur = self._nic_overhead + dur
            nf = self._tx_next[tx]
            s = start if start > nf else nf
            e = s + nic_dur
            self._tx_busy[tx] += nic_dur
            if e < end:
                self._tx_busy[tx] += end - e
                e = end
            self._tx_next[tx] = e
            start = s
            end = e
            mode = route.lane_mode
            if mode:
                link_dur = self._link_overhead + nbytes * link_inv_beta
                lane_next = self._lane_next
                lane_busy = self._lane_busy
                lanes = route.lanes
                if mode == LANES_PAIR:
                    a, b = lanes
                    lanes = (a if lane_next[a] <= lane_next[b] else b,)
                elif mode == LANES_GROUP:
                    lanes = (min(lanes, key=lane_next.__getitem__),)
                elif mode == LANES_PER_HOP:  # pick every lane before claiming any
                    lanes = [min(g, key=lane_next.__getitem__) for g in lanes]
                for ln in lanes:
                    nf = lane_next[ln]
                    s = start if start > nf else nf
                    e = s + link_dur
                    lane_busy[ln] += link_dur
                    if e < end:
                        lane_busy[ln] += end - e
                        e = end
                    lane_next[ln] = e
                    start = s
                    end = e
            rx = route.rx
            nf = self._rx_next[rx]
            s = start if start > nf else nf
            e = s + nic_dur
            self._rx_busy[rx] += nic_dur
            if e < end:
                self._rx_busy[rx] += end - e
                e = end
            self._rx_next[rx] = e
            start = s
            end = e

        # Receiver port.  A faster downstream stage cannot finish before
        # upstream data has fully streamed through; the port stays occupied
        # while it drains, so the extension counts as busy time.
        nf = self._recv_next[dst]
        s = start if start > nf else nf
        e = s + port_dur
        self._recv_busy[dst] += port_dur
        if e < end:
            self._recv_busy[dst] += end - e
            e = end
        self._recv_next[dst] = e
        return send_complete, e

    # -------------------------------------------------------------- reporting
    def utilization(self, horizon: float) -> dict[str, dict]:
        """Busy fractions per resource family over ``[0, horizon]``.

        Each family maps every listed resource (by rank, node or the
        network's lane key) to its busy time over ``horizon``.
        """
        def family(keys, next_free, busy):
            return {
                keys[i]: (b / horizon if horizon > 0 else 0.0)
                for i, (nf, b) in enumerate(zip(next_free, busy))
                if nf != _UNLISTED
            }

        ranks = range(len(self._send_next))
        nodes = range(len(self._tx_next))
        return {
            "send_ports": family(ranks, self._send_next, self._send_busy),
            "recv_ports": family(ranks, self._recv_next, self._recv_busy),
            "nic_tx": family(nodes, self._tx_next, self._tx_busy),
            "nic_rx": family(nodes, self._rx_next, self._rx_busy),
            "links": family(self._table.lane_keys, self._lane_next, self._lane_busy),
        }
