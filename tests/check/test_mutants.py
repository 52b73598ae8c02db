"""The checker must catch every seeded mutant.

Each mutant reintroduces one specific race, in the logger or in one of
the shm seams around it (collector, lane owner, attach geometry); the
checker must find it, shrink the failing schedule, blame an invariant
from the mutant's expected set, and produce a script that replays
deterministically.
"""

import pytest

from repro.check import CheckConfig, explore_exhaustive
from repro.check.mutants import LOGGER, MUTANTS, make_logger
from repro.check.script import ScheduleScript
from repro.core.logger import TraceLogger


def _explore_mutant(name):
    spec = MUTANTS[name]
    overrides = dict(spec.config)
    bound = overrides.pop("preemption_bound", 2)
    cfg = CheckConfig(mutant=name, **overrides)
    return spec, explore_exhaustive(cfg, preemption_bound=bound)


@pytest.mark.parametrize("name", sorted(MUTANTS))
def test_mutant_is_caught(name):
    spec, result = _explore_mutant(name)
    assert not result.passed, (
        f"mutant {name!r} survived {result.schedules} schedules; "
        f"re-run: PYTHONPATH=src python -m repro.cli check --mutant {name}"
    )
    assert result.violation.invariant in spec.expected, (
        f"mutant {name!r} tripped {result.violation.invariant!r}, "
        f"expected one of {spec.expected}: {result.violation.detail}"
    )


@pytest.mark.parametrize("name", sorted(MUTANTS))
def test_mutant_counterexample_replays(name):
    _, result = _explore_mutant(name)
    mini = result.counterexample
    assert mini.steps <= result.original.steps
    script = ScheduleScript.from_outcome(mini)
    first = script.replay()
    second = script.replay()
    assert first.violation is not None
    assert first.violation.invariant == result.violation.invariant
    # deterministic: identical choices, identical failure
    assert first.choices == second.choices
    assert first.violation.detail == second.violation.detail


def test_counterexamples_are_minimized():
    # The shrinker's fixpoint guarantee: neither truncating the forced
    # prefix nor deleting any single forced choice still reproduces the
    # failure (the rest of the schedule follows the default policy).
    from repro.check.harness import run_schedule

    def reproduces(cfg, prefix, invariant):
        out = run_schedule(cfg, prefix=prefix)
        return out.violation is not None and \
            out.violation.invariant == invariant

    for name in ("non-atomic-reserve", "reset-on-book"):
        _, result = _explore_mutant(name)
        mini = result.counterexample
        assert mini.steps <= result.original.steps
        invariant = result.violation.invariant
        prefix = mini.choices[:mini.forced]
        if prefix:
            assert not reproduces(mini.config, prefix[:-1], invariant), (
                f"mutant {name!r}: truncating the forced prefix still fails"
            )
        for i in range(len(prefix)):
            assert not reproduces(
                mini.config, prefix[:i] + prefix[i + 1:], invariant
            ), f"mutant {name!r}: forced choice {i} is removable"


def test_registry_and_factory():
    logger_mutants = [s for s in MUTANTS.values() if s.seam == LOGGER]
    assert len(logger_mutants) == 5
    cfg = CheckConfig()
    from repro.check.harness import CheckedSystem

    system = CheckedSystem(cfg)
    ctl = system.lanes[0].ctl
    real = make_logger(None, ctl, system.mask, system.clock)
    assert type(real) is TraceLogger
    for name, spec in MUTANTS.items():
        mut = make_logger(name, ctl, system.mask, system.clock)
        # A mutant of another seam leaves the real logger in place.
        assert type(mut) is (spec.cls if spec.seam == LOGGER
                             else TraceLogger)
    with pytest.raises(KeyError):
        make_logger("no-such-mutant", ctl, system.mask, system.clock)


def test_reset_on_book_reproduces_the_fixed_seed_bug():
    """The reset-on-book mutant is this codebase's own former behavior:
    its counterexample documents the race the generation-tagged commit
    words fixed.  The failure must implicate the committed count."""
    spec, result = _explore_mutant("reset-on-book")
    assert not result.passed
    detail = result.violation.detail
    assert "committed" in detail
