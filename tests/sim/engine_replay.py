"""The discrete-event engine as the fast path's reference.

:func:`run_on_engine` replays any :class:`~repro.sim.schedule.Schedule` on
the :class:`~repro.sim.engine.Engine` through a timing-only program per
rank that drives the engine's own primitives, as the rank program
(:func:`~repro.sim.program.rank_program`) does: ``charge`` advances the
rank's clock by ``n * unit`` bytes of memcpy, ``send`` and ``recv`` charge
the call overhead and post through :meth:`~repro.sim.engine.Engine.send`
and :meth:`~repro.sim.engine.Engine.recv`, ``wait`` yields
:meth:`~repro.sim.engine.Engine.waitall_condition` over the receive slots
posted since the last wait with the latest send completion as its floor,
and a ``None`` rank is not spawned.  The schedules here may be short-form
(sends without block lists, receives without sizes), which is why the
replay does not go through the rank program.  It returns a
:class:`~repro.sim.fastpath.FastRunOutcome`, so an executor run and an
engine run compare field by field; :func:`assert_matches_engine` does
that, and compares the exception type and message when either run raises.
"""

from __future__ import annotations

import pytest

from repro.sim.engine import DeadlockError, Engine, SimTimeoutError
from repro.sim.fastpath import FastRunOutcome, execute_schedule


def _program(engine, rank, ops, unit):
    clock = engine.rank_now
    params = engine.machine.params
    slots = []
    floor = 0.0
    for op in ops:
        kind = op[0]
        if kind == "charge":
            clock[rank] += op[1] * unit / params.memcpy_beta
        elif kind == "send":
            clock[rank] += params.call_overhead
            done = engine.send(rank, op[1], op[2] * unit, op[3], None).send_complete
            if done > floor:
                floor = done
        elif kind == "recv":
            clock[rank] += params.call_overhead
            slots.append(engine.recv(rank, op[1], op[2]))
        else:
            yield engine.waitall_condition(slots, floor)
            slots = []
            floor = 0.0


def _spawned(schedule, machine, unit, **budgets) -> Engine:
    engine = Engine(schedule.n_ranks, machine, **budgets)
    engine.spawn_all(
        lambda rank: None if schedule.ops[rank] is None
        else _program(engine, rank, schedule.ops[rank], unit)
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
    out = _outcome(execute_schedule, schedule, machine, unit=unit, **budgets)
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
    out = _outcome(execute_schedule, schedule, machine, unit=unit,
                   max_events=events)
    assert out == (DeadlockError, str(info.value))
    if events > 1:
        kind, message = _outcome(execute_schedule, schedule, machine,
                                 unit=unit, max_events=events - 1)
        assert kind is SimTimeoutError
        assert message.startswith(
            f"event budget exceeded: processed {events - 1} events"
        ), message
    return events
