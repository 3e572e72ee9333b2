"""Optional message tracing and aggregate statistics.

Attach a :class:`TraceCollector` to an :class:`~repro.sim.engine.Engine` to
record every message's (src, dst, size, class, timing).  The benchmarks use
the per-class aggregates to report, e.g., how many bytes crossed global
links under each algorithm — the quantity the paper's design minimizes.

The collector also tracks *delivery* separately from *sending*: a message
sent into a lossy fabric whose retry budget runs out arrives at ``inf`` and
counts as sent-but-lost.  The per-class (sent, delivered, lost, attempts)
aggregates are the conservation laws the :mod:`repro.verify` fuzzer checks
on every run — under no fault plan, sent == delivered per class and every
message takes exactly one attempt.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass

from repro.cluster.spec import LinkClass
from repro.sim.fabric import MessageTiming


@dataclass(frozen=True, slots=True)
class MessageRecord:
    src: int
    dst: int
    nbytes: int
    tag: int
    link_class: LinkClass
    post_time: float
    send_complete: float
    arrival: float           #: ``inf`` for a message lost under a fault plan
    attempts: int = 1        #: transmissions including retries (fault plans)


class TraceCollector:
    """Accumulates message records and per-class aggregates."""

    def __init__(self, max_records: int = 1_000_000):
        self.max_records = max_records
        self.records: list[MessageRecord] = []
        self.count_by_class: Counter[LinkClass] = Counter()
        self.bytes_by_class: Counter[LinkClass] = Counter()
        self.delivered_count_by_class: Counter[LinkClass] = Counter()
        self.delivered_bytes_by_class: Counter[LinkClass] = Counter()
        self.lost_by_class: Counter[LinkClass] = Counter()
        self.attempts_by_class: Counter[LinkClass] = Counter()
        self.sends_by_rank: Counter[int] = Counter()
        self.recvs_by_rank: Counter[int] = Counter()

    def record(
        self,
        src: int,
        dst: int,
        nbytes: int,
        tag: int,
        timing: MessageTiming,
        post_time: float = 0.0,
    ) -> None:
        cls = timing.link_class
        self.count_by_class[cls] += 1
        self.bytes_by_class[cls] += nbytes
        self.attempts_by_class[cls] += timing.attempts
        if timing.arrival == math.inf:
            self.lost_by_class[cls] += 1
        else:
            self.delivered_count_by_class[cls] += 1
            self.delivered_bytes_by_class[cls] += nbytes
        self.sends_by_rank[src] += 1
        self.recvs_by_rank[dst] += 1
        if len(self.records) < self.max_records:
            self.records.append(
                MessageRecord(src, dst, nbytes, tag, cls,
                              post_time, timing.send_complete, timing.arrival,
                              timing.attempts)
            )

    # ---------------------------------------------------------------- queries
    @property
    def total_messages(self) -> int:
        return sum(self.count_by_class.values())

    @property
    def total_bytes(self) -> int:
        return sum(self.bytes_by_class.values())

    def off_socket_messages(self) -> int:
        """Messages that left a socket (the paper's ``n_off`` aggregate)."""
        return sum(
            count
            for cls, count in self.count_by_class.items()
            if cls not in (LinkClass.SELF, LinkClass.INTRA_SOCKET)
        )

    def max_sends_per_rank(self) -> int:
        return max(self.sends_by_rank.values(), default=0)

    def summary(self) -> dict[str, dict[str, int]]:
        """Per-class conservation aggregates for reports and invariants.

        The dict is pure JSON data, so it survives :meth:`AllgatherRun.slim`
        and the result cache (as ``AllgatherRun.trace_summary``); the
        :mod:`repro.verify` conservation checks run on exactly this shape.
        """
        return {
            cls.name: {
                "messages": self.count_by_class.get(cls, 0),
                "bytes": self.bytes_by_class.get(cls, 0),
                "delivered_messages": self.delivered_count_by_class.get(cls, 0),
                "delivered_bytes": self.delivered_bytes_by_class.get(cls, 0),
                "lost_messages": self.lost_by_class.get(cls, 0),
                "attempts": self.attempts_by_class.get(cls, 0),
            }
            for cls in LinkClass
        }
