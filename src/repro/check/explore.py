"""Schedule exploration: bounded-exhaustive DFS and randomized PCT.

Two complementary strategies drive :func:`~repro.check.harness.run_schedule`:

* :func:`explore_exhaustive` — CHESS-style stateless depth-first search
  with a preemption bound.  Each executed schedule records, at every
  choice point, which tasks were enabled; the search then branches by
  re-executing the same choice prefix with one alternative choice
  substituted, exploring *every* interleaving whose preemption count
  stays within the bound.  For small configurations this is a proof:
  the acceptance configuration (2 writers x 2 events, bound 2) runs
  every such interleaving in seconds.

* :func:`explore_random` — PCT-style randomized priority scheduling
  (Burckhardt et al.): each iteration assigns random task priorities,
  always runs the highest-priority enabled task, and demotes the
  running task at ``depth - 1`` randomly chosen steps.  This probes far
  deeper preemption counts than the exhaustive bound can afford, with
  a per-iteration seed so any failure is reproducible.

Both shrink failing schedules (:mod:`repro.check.shrink`) before
reporting, so a counterexample is the *shortest* forced prefix that
still trips the same invariant.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.check.harness import (
    Action,
    CheckConfig,
    Point,
    ScheduleOutcome,
    Violation,
    run_schedule,
)
from repro.check.shrink import shrink_outcome


@dataclass
class ExploreResult:
    """What an exploration established."""

    passed: bool
    schedules: int = 0
    steps: int = 0
    violation: Optional[Violation] = None
    counterexample: Optional[ScheduleOutcome] = None  # minimized
    original: Optional[ScheduleOutcome] = None        # as first found
    truncated: bool = False  # stopped at max_schedules, not exhausted
    mode: str = "exhaustive"
    seed: Optional[int] = None       # base seed (random mode)
    iteration: Optional[int] = None  # failing iteration (random mode)


def _alternatives(
    point: Point, config: CheckConfig, preemption_bound: int,
) -> List[Action]:
    """Every choice at ``point`` other than the one taken, within budget."""
    alts: List[Action] = []
    prev_enabled = point.prev is not None and point.prev in point.enabled
    for tid in point.enabled:
        action: Action = ("run", tid)
        if action == point.choice:
            continue
        cost = 1 if (prev_enabled and tid != point.prev) else 0
        if point.preemptions + cost <= preemption_bound:
            alts.append(action)
    if point.kills < config.kills:
        for tid in point.enabled:
            if tid < config.writers and ("kill", tid) != point.choice:
                alts.append(("kill", tid))
    return alts


def explore_exhaustive(
    config: CheckConfig,
    preemption_bound: int = 2,
    max_schedules: Optional[int] = None,
    shrink: bool = True,
) -> ExploreResult:
    """Run every schedule of ``config`` within the preemption bound.

    Stops at the first invariant violation (shrunk to a minimal
    counterexample) or when the space is exhausted.  ``max_schedules``
    caps the search; hitting it sets ``truncated`` so callers cannot
    mistake a partial search for a proof.
    """
    result = ExploreResult(passed=True)
    stack: List[List[Action]] = [[]]
    while stack:
        prefix = stack.pop()
        outcome = run_schedule(config, prefix=prefix)
        result.schedules += 1
        result.steps += outcome.steps
        if outcome.violation is not None:
            minimized = (
                shrink_outcome(config, outcome, result)
                if shrink else outcome
            )
            result.passed = False
            result.violation = minimized.violation
            result.counterexample = minimized
            result.original = outcome
            return result
        # Branch only at points beyond the forced prefix: every branch
        # point is visited through exactly one parent, so no schedule is
        # executed twice.
        for i in range(len(prefix), len(outcome.points)):
            point = outcome.points[i]
            for alt in _alternatives(point, config, preemption_bound):
                stack.append(list(outcome.choices[:i]) + [alt])
        if max_schedules is not None and result.schedules >= max_schedules:
            result.truncated = True
            return result
    return result


@dataclass
class _PCTStrategy:
    """Priority scheduling with random change points (one iteration)."""

    priorities: Dict[int, int]
    change_points: frozenset
    kill_at: Optional[int] = None  # (step) at which to kill...
    kill_tid: Optional[int] = None
    _floor: int = field(default=0, init=False)

    def __post_init__(self) -> None:
        self._floor = min(self.priorities.values()) - 1

    def choose(self, step, enabled, prev, preemptions, kills):
        if (
            self.kill_at is not None
            and step >= self.kill_at
            and self.kill_tid in enabled
        ):
            tid = self.kill_tid
            self.kill_at = None
            return ("kill", tid)
        best = max(enabled, key=lambda t: self.priorities.get(t, 0))
        if step in self.change_points:
            self.priorities[best] = self._floor
            self._floor -= 1
            best = max(enabled, key=lambda t: self.priorities.get(t, 0))
        return ("run", best)


def explore_random(
    config: CheckConfig,
    schedules: int = 200,
    seed: int = 0,
    depth: int = 3,
    shrink: bool = True,
) -> ExploreResult:
    """PCT-style randomized exploration, reproducible from ``seed``.

    Iteration ``i`` derives its randomness from ``(seed, i)``, so a
    failure reported with its seed re-runs identically.  The first
    schedule is always the default (no-preemption) one, which catches
    sequential bugs with a trivial counterexample.
    """
    result = ExploreResult(passed=True, mode="random", seed=seed)
    ntasks = config.writers + config.rivals + (1 if config.reader else 0)
    horizon = 64
    for i in range(schedules):
        rng = random.Random(f"{seed}:{i}")
        if i == 0:
            strategy = None
        else:
            prios = list(range(ntasks))
            rng.shuffle(prios)
            changes = frozenset(
                rng.randrange(max(1, 2 * horizon))
                for _ in range(max(0, depth - 1))
            )
            kill_at = kill_tid = None
            if config.kills > 0:
                kill_at = rng.randrange(max(1, horizon))
                kill_tid = rng.randrange(config.writers)
            strategy = _PCTStrategy(
                dict(enumerate(prios)), changes, kill_at, kill_tid
            ).choose
        outcome = run_schedule(config, strategy=strategy)
        result.schedules += 1
        result.steps += outcome.steps
        horizon = max(horizon, outcome.steps)
        if outcome.violation is not None:
            minimized = (
                shrink_outcome(config, outcome, result)
                if shrink else outcome
            )
            result.passed = False
            result.violation = minimized.violation
            result.counterexample = minimized
            result.original = outcome
            result.iteration = i
            return result
    return result
