"""JSON (de)serialization of slim :class:`AllgatherRun` results.

The cache and the cross-process result channel both move runs as plain
dicts: :func:`run_to_dict` serializes a *slim* run (see
:meth:`AllgatherRun.slim` — no payload buffers, no trace) and
:func:`run_from_dict` reconstructs it.  Floats round-trip exactly through
Python's ``json`` (shortest-repr encoding), so ``simulated_time`` and
``finish_times`` survive bit-for-bit — the property the orchestrator's
"parallel == serial == cached" contract rests on.
"""

from __future__ import annotations

from typing import Any

import numpy as np

from repro.collectives.base import SetupStats
from repro.collectives.runner import AllgatherRun

#: Serialization format version (bumped on layout changes; part of the
#: cache salt so stale entries are recomputed, never misread).
#: v2: slim runs carry ``trace_summary`` (per-class conservation aggregates).
#: v3: slim runs carry ``missing_ranks`` + ``recovery`` (fail-stop faults).
#: v4: slim runs carry ``selected_algorithm`` (adaptive ``"auto"`` picks).
#: v5: ``sim_mode="auto"`` always replays exactly; v4 ``auto`` entries may
#:     hold closed-form times and must be recomputed.
FORMAT_VERSION = 5

#: Run fields excluded from the determinism contract (host-dependent).
WALL_CLOCK_FIELDS = ("wall_time",)


def _jsonable(value: Any) -> Any:
    """Recursively coerce numpy scalars/containers to plain JSON types."""
    if isinstance(value, np.integer):
        return int(value)
    if isinstance(value, np.floating):
        return float(value)
    if isinstance(value, np.ndarray):
        return [_jsonable(v) for v in value.tolist()]
    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    return value


def run_to_dict(run: AllgatherRun) -> dict:
    """Serialize a slim run; raises if the run still carries a trace."""
    if run.trace is not None:
        raise ValueError("serialize slim runs only: call run.slim() first")
    return {
        "format": FORMAT_VERSION,
        "algorithm": run.algorithm,
        "msg_size": run.msg_size,
        "simulated_time": run.simulated_time,
        # Sorted [rank, time] pairs: JSON objects would stringify the keys.
        "finish_times": [
            [rank, t] for rank, t in sorted(run.finish_times.items())
        ],
        "messages_sent": run.messages_sent,
        "bytes_sent": run.bytes_sent,
        "setup_stats": {
            "protocol_messages": run.setup_stats.protocol_messages,
            "simulated_time": run.setup_stats.simulated_time,
            "wall_time": run.setup_stats.wall_time,
            "extras": _jsonable(run.setup_stats.extras),
        },
        "wall_time": run.wall_time,
        "block_sizes": run.block_sizes,
        "utilization": _jsonable(run.utilization),
        "fault_stats": run.fault_stats,
        "requested_algorithm": run.requested_algorithm,
        "trace_summary": _jsonable(run.trace_summary),
        "sim_path": run.sim_path,
        "missing_ranks": list(run.missing_ranks),
        "recovery": _jsonable(run.recovery),
        "selected_algorithm": run.selected_algorithm,
    }


def run_from_dict(data: dict) -> AllgatherRun:
    """Inverse of :func:`run_to_dict` (results empty, trace ``None``)."""
    if data.get("format") != FORMAT_VERSION:
        raise ValueError(
            f"unsupported run format {data.get('format')!r} "
            f"(expected {FORMAT_VERSION})"
        )
    stats = data["setup_stats"]
    return AllgatherRun(
        algorithm=data["algorithm"],
        msg_size=data["msg_size"],
        simulated_time=data["simulated_time"],
        finish_times={int(rank): t for rank, t in data["finish_times"]},
        messages_sent=data["messages_sent"],
        bytes_sent=data["bytes_sent"],
        setup_stats=SetupStats(
            protocol_messages=stats["protocol_messages"],
            simulated_time=stats["simulated_time"],
            wall_time=stats["wall_time"],
            extras=dict(stats["extras"]),
        ),
        results=[],
        trace=None,
        wall_time=data["wall_time"],
        block_sizes=(
            list(data["block_sizes"]) if data["block_sizes"] is not None else None
        ),
        utilization=data["utilization"],
        fault_stats=data["fault_stats"],
        requested_algorithm=data["requested_algorithm"],
        trace_summary=data["trace_summary"],
        # Absent in pre-hybrid payloads (every run was the engine then).
        sim_path=data.get("sim_path", "des"),
        missing_ranks=tuple(data.get("missing_ranks", ())),
        recovery=data.get("recovery"),
        selected_algorithm=data.get("selected_algorithm"),
    )
