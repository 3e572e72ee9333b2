"""Per-layer tracing from outside the program.

:class:`Tracer` replaces each layer's public entry points (dotted names,
below) with timing wrappers for as long as it is installed.  Every call
records a span ``(id, layer, start, end, parent id)`` in memory; a layer's
self time is its spans' durations minus the time their child spans cover.
A call into a layer that is already the innermost open span (a recursive
``run_allgather``, ``compiled_for`` inside ``multi_plan_for``) belongs to
the outer span and is neither timed nor counted again.

A dotted name that no longer resolves is reported in :attr:`Tracer.absent`
instead of failing, so the trace survives the program deleting an entry
point.  Module-level functions are also replaced where other modules of
the same package imported them by name, so the wrapper sees every caller.
"""

from __future__ import annotations

import importlib
import itertools
import sys
import time
import weakref
from collections import Counter

#: layer -> the public entry points whose calls are that layer's work.
LAYERS: dict[str, tuple[str, ...]] = {
    "topology": ("repro.exec.spec.TopologySpec.build",),
    "select": ("repro.select.selector.select",),
    "collectives.setup": ("repro.collectives.base.NeighborhoodAllgatherAlgorithm.setup",),
    "sim.schedule": ("repro.collectives.base.NeighborhoodAllgatherAlgorithm.schedule_for",),
    "sim.contention": ("repro.collectives.runner.contention_free",),
    "sim.compile": (
        "repro.sim.fastpath.compiled_for",
        "repro.sim.fastpath.batch_plan_for",
        "repro.sim.fastpath.multi_plan_for",
    ),
    "sim.fastpath": ("repro.collectives.runner.execute_schedule",),
    "sim.engine": ("repro.sim.engine.Engine.spawn_all", "repro.sim.engine.Engine.run"),
    "collectives.runner": ("repro.collectives.runner.run_allgather",),
    "collectives.verify": ("repro.collectives.runner.verify_allgather",),
    "exec.cache": ("repro.exec.cache.ResultCache.get", "repro.exec.cache.ResultCache.put"),
    "exec.serialize": ("repro.exec.serialize.run_to_dict", "repro.exec.serialize.run_from_dict"),
    "exec.orchestrator": ("repro.exec.orchestrator.execute",),
}

#: Counter read from the plan cache around the traced region.
PLAN_CACHE_STATS = "repro.sim.plancache.plan_cache_stats"

#: Counts the tracer keeps besides calls and self time.
COUNTERS = (
    "collectives.setup.protocol_messages", "sim.schedule.ops",
    "sim.plancache.hits", "sim.plancache.misses",
    "sim.fastpath.messages", "sim.engine.messages",
    "exec.cache.hits", "exec.cache.misses",
)


def resolve(dotted: str):
    """``(owner, attribute, value)`` for a dotted name, or ``None``.

    The longest importable prefix is the module; the rest is an attribute
    path inside it (``pkg.mod.Class.method``).
    """
    parts = dotted.split(".")
    for split in range(len(parts) - 1, 0, -1):
        try:
            owner = importlib.import_module(".".join(parts[:split]))
        except ModuleNotFoundError:
            continue
        try:
            for attr in parts[split:-1]:
                owner = getattr(owner, attr)
            return owner, parts[-1], getattr(owner, parts[-1])
        except AttributeError:
            return None
    return None


# Counters read from the arguments and results of particular entry points.
# Each takes (tracer, args, result, before) where ``before`` is what the
# matching entry of _BEFORE returned ahead of the call; ``result`` is None
# when the call raised.
def _setup_done(tracer, args, result, previous):
    if result is not None and result is not previous:  # a build, not a memo hit
        tracer.counters["collectives.setup.protocol_messages"] += result.protocol_messages


def _schedule_done(tracer, args, result, _):
    # Schedules are unhashable dataclasses: remember them by id, weakly.
    if result is not None and tracer.seen_schedules.get(id(result)) is not result:
        tracer.seen_schedules[id(result)] = result
        tracer.counters["sim.schedule.ops"] += sum(len(ops) for ops in result.ops if ops)


def _fastpath_done(tracer, args, result, _):
    if result is not None:
        tracer.counters["sim.fastpath.messages"] += result.messages_sent


def _engine_done(tracer, args, result, _):
    # Counted even when run() raised: a crashed round's messages were sent.
    tracer.counters["sim.engine.messages"] += args[0].messages_sent


def _cache_get_done(tracer, args, result, _):
    tracer.counters["exec.cache.hits" if result is not None else "exec.cache.misses"] += 1


_BEFORE = {
    "repro.collectives.base.NeighborhoodAllgatherAlgorithm.setup":
        lambda args: args[0].setup_stats,
}
_AFTER = {
    "repro.collectives.base.NeighborhoodAllgatherAlgorithm.setup": _setup_done,
    "repro.collectives.base.NeighborhoodAllgatherAlgorithm.schedule_for": _schedule_done,
    "repro.collectives.runner.execute_schedule": _fastpath_done,
    "repro.sim.engine.Engine.run": _engine_done,
    "repro.exec.cache.ResultCache.get": _cache_get_done,
}


class Tracer:
    """Timing wrappers on :data:`LAYERS`; use as a context manager."""

    def __init__(self, layers: dict[str, tuple[str, ...]] = LAYERS):
        self.layers = layers
        self.spans: list[tuple[int, str, float, float, int | None]] = []
        self.self_time: Counter = Counter()
        self.calls: Counter = Counter()
        self.counters: Counter = Counter()
        self.absent: list[str] = []
        self.seen_schedules = weakref.WeakValueDictionary()
        self._ids = itertools.count()
        self._stack: list[list] = []  # open spans: [id, layer, start, child time]
        self._patches: list[tuple[object, str, object]] = []
        self._plan_before: dict | None = None

    def __enter__(self) -> "Tracer":
        for layer, names in self.layers.items():
            for dotted in names:
                self._wrap(layer, dotted)
        self._plan_before = self._plan_stats()
        return self

    def __exit__(self, *exc) -> None:
        plan_after = self._plan_stats()
        if self._plan_before is not None and plan_after is not None:
            for field in ("hits", "misses"):
                self.counters[f"sim.plancache.{field}"] += (
                    plan_after[field] - self._plan_before[field]
                )
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def _plan_stats(self) -> dict | None:
        found = resolve(PLAN_CACHE_STATS)
        return found[2]() if found is not None else None

    def _wrap(self, layer: str, dotted: str) -> None:
        found = resolve(dotted)
        if found is None or not callable(found[2]):
            self.absent.append(dotted)
            return
        owner, attr, original = found
        if isinstance(owner, type):
            original = owner.__dict__.get(attr, original)  # the raw function
            owners = [owner]
        else:
            package = owner.__name__.split(".")[0]
            owners = [
                module for name, module in list(sys.modules.items())
                if name.split(".")[0] == package and getattr(module, attr, None) is original
            ]
        before, after = _BEFORE.get(dotted), _AFTER.get(dotted)
        call = self._call

        def wrapper(*args, **kwargs):
            return call(layer, original, args, kwargs, before, after)

        wrapper.__wrapped__ = original
        for target in owners:
            self._patches.append((target, attr, original))
            setattr(target, attr, wrapper)

    def _call(self, layer, fn, args, kwargs, before, after):
        stack = self._stack
        if stack and stack[-1][1] == layer:
            return fn(*args, **kwargs)
        state = before(args) if before is not None else None
        parent = stack[-1][0] if stack else None
        frame = [next(self._ids), layer, time.perf_counter(), 0.0]
        stack.append(frame)
        result = None
        try:
            result = fn(*args, **kwargs)
            return result
        finally:
            end = time.perf_counter()
            stack.pop()
            duration = end - frame[2]
            self.self_time[layer] += duration - frame[3]
            self.calls[layer] += 1
            if stack:
                stack[-1][3] += duration
            self.spans.append((frame[0], layer, frame[2], end, parent))
            if after is not None:
                after(self, args, result, state)
