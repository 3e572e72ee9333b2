"""Random-schedule differential test: the executor against the engine.

Seeded random schedules of 1-12 ranks on random machines, with what the
algorithms' schedules never produce: ``None`` ranks, self-sends, empty
stages, sends no receive matches, receives no send matches (deadlocks),
receives posted a stage before or after their send, ops after the last
wait, 0-block messages and random watchdog budgets.  Each schedule runs on
the fast path and on the engine (:mod:`tests.sim.engine_replay`): the
executor must equal the engine on every field, or raise the same exception
with the same message, and a deadlock must be reached after the same
number of events.
"""

from __future__ import annotations

import dataclasses
import random
from collections import Counter

from repro.exec.spec import MachineSpec
from repro.sim.engine import DeadlockError, SimTimeoutError
from repro.sim.schedule import Schedule
from tests.sim.engine_replay import (
    assert_deadlocks_like_engine,
    assert_matches_engine,
    run_on_engine,
)

SEED = 20240601
N_SCHEDULES = 500
#: Block counts of sends and charges (0-block messages included).
COUNTS = (0, 1, 3, 64, 1000)
UNITS = (0, 1, 8, 4096)


def _random_machine(rng: random.Random, n: int):
    while True:
        spec = MachineSpec(
            nodes=rng.randint(1, 8),
            sockets_per_node=rng.randint(1, 2),
            ranks_per_socket=rng.randint(1, 4),
            placement_seed=rng.choice((None, rng.randrange(1000))),
        )
        if spec.n_ranks >= n:
            break
    machine = spec.build()
    if rng.random() < 0.25:  # fixed shared-link routing instead of adaptive
        machine = dataclasses.replace(
            machine,
            params=dataclasses.replace(machine.params, adaptive_routing=False),
        )
    return machine


def _random_schedule(rng: random.Random, n: int) -> Schedule:
    n_stages = rng.randint(0, 4)
    stages = [[[] for _ in range(n_stages)] for _ in range(n)]
    for s in range(n_stages):
        for _ in range(rng.randint(0, 2 * n)):
            src, dst, tag = rng.randrange(n), rng.randrange(n), rng.randrange(3)
            stages[src][s].append(("send", dst, rng.choice(COUNTS), tag))
            roll = rng.random()
            if roll < 0.85:  # received in the same stage
                stages[dst][s].append(("recv", src, tag))
            elif roll < 0.95:  # received in another stage
                stages[dst][rng.randrange(n_stages)].append(("recv", src, tag))
            # else: a send no receive matches
        for rank in range(n):
            if rng.random() < 0.3:
                stages[rank][s].append(("charge", rng.choice(COUNTS)))
        if rng.random() < 0.1:  # a receive no send matches
            stages[rng.randrange(n)][s].append(("recv", rng.randrange(n), 7))
    ops = []
    for rank in range(n):
        if rng.random() < 0.08:
            ops.append(None)
            continue
        rank_ops = []
        for s, segment in enumerate(stages[rank]):
            rng.shuffle(segment)
            rank_ops.extend(segment)
            if s < n_stages - 1 or rng.random() < 0.8:
                rank_ops.append(("wait",))
        ops.append(rank_ops)
    return Schedule(n_ranks=n, ops=ops, deliveries=[[] for _ in range(n)])


def _cases():
    """``(schedule, machine, unit, budgets)`` for every seeded case."""
    rng = random.Random(SEED)
    for _ in range(N_SCHEDULES):
        n = rng.randint(1, 12)
        machine = _random_machine(rng, n)
        schedule = _random_schedule(rng, n)
        budgets = {}
        if rng.random() < 0.3:
            budgets["max_events"] = rng.randint(1, 3 * n)
        if rng.random() < 0.15:
            budgets["max_sim_time"] = 10 ** rng.uniform(-7, -4)
        yield schedule, machine, rng.choice(UNITS), budgets


_CASES = list(_cases())


def test_exact_pricing_matches_engine():
    kinds = Counter()
    for schedule, machine, unit, budgets in _CASES:
        kind, _ = assert_matches_engine(schedule, machine, unit, **budgets)
        kinds[kind] += 1
    # the seed reaches every outcome, often
    assert kinds["ok"] >= 50
    assert kinds[DeadlockError] >= 50
    assert kinds[SimTimeoutError] >= 50


def test_deadlocks_match_engine():
    deadlocks = 0
    for schedule, machine, unit, _ in _CASES:
        try:
            run_on_engine(schedule, machine, unit)
        except DeadlockError:
            assert_deadlocks_like_engine(schedule, machine, unit)
            deadlocks += 1
    assert deadlocks >= 50
