"""Non-blocking operation handles, MPI ``MPI_Request``-style.

A request becomes *determined* once its completion time is known: sends at
post time (the fabric schedules them greedily), receives when the matching
message is known.  ``payload``/``source``/``nbytes`` are filled on receives
when matched.
"""

from __future__ import annotations

import enum
from typing import Any


class RequestKind(enum.Enum):
    SEND = "send"
    RECV = "recv"


class Request:
    """Handle for one isend/irecv."""

    __slots__ = (
        "kind",
        "owner",
        "tag",
        "peer",
        "post_time",
        "completion_time",
        "payload",
        "source",
        "nbytes",
        "attempts",
        "lost",
        "_waiter",
    )

    def __init__(self, kind: RequestKind, owner: int, peer: int | None, tag: int, post_time: float):
        self.kind = kind
        self.owner = owner          #: rank that posted the request
        self.peer = peer            #: destination (send) / source filter (recv; None = ANY)
        self.tag = tag
        self.post_time = post_time
        self.completion_time: float | None = None
        self.payload: Any = None    #: delivered payload (recv only)
        self.source: int | None = None   #: actual source (recv only)
        self.nbytes: int | None = None   #: actual size (recv only)
        self.attempts: int = 1      #: transmissions under a fault plan (send only)
        self.lost: bool = False     #: send permanently lost (retry budget exhausted)
        self._waiter = None         #: WaitState currently blocked on this request

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        t = self.completion_time
        state = "pending" if t is None else f"t={t:.3e}"
        return f"Request({self.kind.value}, owner={self.owner}, peer={self.peer}, tag={self.tag}, {state})"
