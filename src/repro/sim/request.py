"""Non-blocking operation handles, MPI ``MPI_Request``-style.

A request becomes *determined* once its completion time is known: sends at
post time (the fabric schedules them greedily), receives when the matching
message is known.  ``payload``/``source``/``nbytes`` are filled on receives
when matched.
"""

from __future__ import annotations

import enum
from typing import TYPE_CHECKING, Any

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.engine import Engine


class RequestKind(enum.Enum):
    SEND = "send"
    RECV = "recv"


class Request:
    """Handle for one isend/irecv.

    A send request holds its own completion time.  A receive request is a
    view of its engine slot (:meth:`~repro.sim.engine.Engine.recv`):
    ``completion_time``, ``payload``, ``source`` and ``nbytes`` read the
    engine's receive lists, so they read ``None`` until a message matches
    and the matched values after.
    """

    __slots__ = (
        "kind",
        "owner",
        "tag",
        "peer",
        "post_time",
        "attempts",
        "lost",
        "slot",
        "_engine",
        "_completion_time",
    )

    def __init__(
        self,
        kind: RequestKind,
        owner: int,
        peer: int | None,
        tag: int,
        post_time: float,
        completion_time: float | None = None,
        engine: "Engine | None" = None,
        slot: int | None = None,
    ):
        self.kind = kind
        self.owner = owner          #: rank that posted the request
        self.peer = peer            #: destination (send) / source filter (recv; None = ANY)
        self.tag = tag
        self.post_time = post_time
        self.attempts: int = 1      #: transmissions under a fault plan (send only)
        self.lost: bool = False     #: send permanently lost (retry budget exhausted)
        self.slot = slot            #: receive slot in the engine (None for sends)
        self._engine = engine
        self._completion_time = completion_time

    @property
    def completion_time(self) -> float | None:
        if self.slot is None:
            return self._completion_time
        return self._engine.recv_done[self.slot]

    @property
    def payload(self) -> Any:
        """Delivered payload (recv only)."""
        return None if self.slot is None else self._engine.recv_payload[self.slot]

    @property
    def source(self) -> int | None:
        """Actual source (recv only)."""
        return None if self.slot is None else self._engine.recv_source[self.slot]

    @property
    def nbytes(self) -> int | None:
        """Actual size (recv only)."""
        return None if self.slot is None else self._engine.recv_nbytes[self.slot]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        t = self.completion_time
        state = "pending" if t is None else f"t={t:.3e}"
        return f"Request({self.kind.value}, owner={self.owner}, peer={self.peer}, tag={self.tag}, {state})"
