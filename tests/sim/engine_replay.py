"""The discrete-event engine as the fast path's reference.

:func:`run_on_engine` replays any :class:`~repro.sim.schedule.Schedule` on
the :class:`~repro.sim.engine.Engine` through the production rank program
(:func:`~repro.sim.program.rank_program`), so the executor is compared with
the program the engine really runs.  The schedules here may be short-form
(sends without block lists, receives without sizes), so each is first
normalised to the rank program's ops: byte fields are scaled by ``unit``,
a short-form send carries ``()``, and a receive expects the size of the
send :func:`~repro.sim.schedule.static_matching` pairs it with (or its own
``op[3]`` when it has one; an unmatched receive never completes, so its
size is never checked).  Every rank starts holding every block the
schedule sends, and a ``None`` rank is not spawned.  It returns a
:class:`~repro.sim.fastpath.FastRunOutcome`, so an executor run and an
engine run compare field by field; :func:`assert_matches_engine` does
that, and compares the exception type and message when either run raises.
:func:`replay` is the fast path's side: the schedule compiled, uncached,
and executed.
"""

from __future__ import annotations

import pytest

from repro.sim.engine import DeadlockError, Engine, SimTimeoutError
from repro.sim.fastpath import FastRunOutcome, compile_schedule, execute_schedule
from repro.sim.program import rank_program
from repro.sim.schedule import static_matching


def _normalised(schedule, unit):
    """``schedule``'s ops in the rank program's long form at ``unit``-byte
    blocks, and every block id its sends carry."""
    send_slots, n_slots, _ = static_matching(schedule)
    sizes = [0] * n_slots
    sends = iter(send_slots)
    for ops in schedule.ops:
        for op in ops or ():
            if op[0] == "send":
                slot = next(sends)
                if slot >= 0:
                    sizes[slot] = op[2] * unit
    slots = iter(range(n_slots))
    rank_ops, blocks = [], set()
    for ops in schedule.ops:
        if ops is None:
            rank_ops.append(None)
            continue
        out = []
        for op in ops:
            kind = op[0]
            if kind == "charge":
                out.append(("charge", op[1] * unit))
            elif kind == "send":
                carried = op[4] if len(op) > 4 else ()
                blocks.update(carried)
                out.append(("send", op[1], op[2] * unit, op[3], carried))
            elif kind == "recv":
                slot = next(slots)
                size = op[3] * unit if len(op) > 3 else sizes[slot]
                out.append(("recv", op[1], op[2], size))
            else:
                out.append(op)
        rank_ops.append(out)
    return rank_ops, blocks


def _spawned(schedule, machine, unit, **budgets) -> Engine:
    rank_ops, held = _normalised(schedule, unit)
    engine = Engine(schedule.n_ranks, machine, **budgets)
    engine.spawn_all(
        lambda rank: None if rank_ops[rank] is None
        else rank_program(engine, rank, rank_ops[rank], held)
    )
    return engine


def run_on_engine(schedule, machine, unit=1, **budgets) -> FastRunOutcome:
    """Run ``schedule`` with ``unit``-byte blocks on the engine.

    ``budgets`` are the engine's ``max_sim_time``/``max_events``.
    """
    engine = _spawned(schedule, machine, unit, **budgets)
    engine.run()
    return FastRunOutcome(
        engine.makespan(), engine.finish_times(), engine.messages_sent,
        engine.bytes_sent, engine.events_processed,
    )


def replay(schedule, machine, unit=1, **budgets) -> FastRunOutcome:
    """Run ``schedule`` with ``unit``-byte blocks on the fast path: compiled
    directly (a hand-built schedule has no plan-cache key), then executed."""
    return execute_schedule(compile_schedule(schedule, machine), unit=unit, **budgets)


def _outcome(fn, *args, **kwargs):
    """``("ok", fields)`` of a run, or ``(exception type, message)``."""
    try:
        out = fn(*args, **kwargs)
    except (DeadlockError, SimTimeoutError) as exc:
        return type(exc), str(exc)
    return "ok", (out.simulated_time, out.finish_times, out.messages_sent,
                  out.bytes_sent, out.events_processed)


def assert_matches_engine(schedule, machine, unit=1, **budgets):
    """The executor must equal the engine on every field, or raise the same
    exception with the same message.  Returns the shared outcome."""
    ref = _outcome(run_on_engine, schedule, machine, unit, **budgets)
    out = _outcome(replay, schedule, machine, unit, **budgets)
    assert out == ref
    return out


def assert_deadlocks_like_engine(schedule, machine, unit=1):
    """A deadlocking schedule raises the engine's :class:`DeadlockError`
    text, after the same number of events.

    The count is checked through the inclusive event budget: with
    ``max_events`` equal to the engine's count the executor must still
    reach the deadlock, and with one event fewer it must trip the budget.
    Returns the engine's event count.
    """
    engine = _spawned(schedule, machine, unit)
    with pytest.raises(DeadlockError) as info:
        engine.run()
    events = engine.events_processed
    out = _outcome(replay, schedule, machine, unit, max_events=events)
    assert out == (DeadlockError, str(info.value))
    if events > 1:
        kind, message = _outcome(replay, schedule, machine, unit,
                                 max_events=events - 1)
        assert kind is SimTimeoutError
        assert message.startswith(
            f"event budget exceeded: processed {events - 1} events"
        ), message
    return events
