"""Exhaustive-mode proofs for small configurations.

These are the acceptance checks of the schedule explorer: for the
configurations below, *every* interleaving within the preemption bound
(and kill budget) must satisfy every protocol invariant.  A failure
here is a real protocol bug (or an invariant bug) — the assertion
message carries the minimized counterexample and the exact command to
reproduce it.
"""

import pytest

from repro.check import CheckConfig, explore_exhaustive, explore_random
from repro.check.script import ScheduleScript

#: The private proof configurations: overrides, preemption bound, and
#: the (schedules, steps) the exhaustive search explores for them.
PROOFS = {
    "2x2-pb2": ({"writers": 2, "events": 2}, 2, (774, 36700)),
    "2x2-bw16-pb2": ({"writers": 2, "events": 2, "buffer_words": 16}, 2,
                     (422, 13364)),
    "3x1-pb1": ({"writers": 3, "events": 1}, 1, (132, 5412)),
    "2x2-kills1-pb1": ({"writers": 2, "events": 2, "kills": 1}, 1,
                       (1972, 71868)),
    "2x2-reader-pb1": ({"writers": 2, "events": 2, "reader": True}, 1,
                       (224, 11312)),
}


def _space(result):
    return result.schedules, result.steps


def _explain(result, cmd: str) -> str:
    v = result.violation
    mini = result.counterexample
    lines = [
        f"violation: {v.invariant}: {v.detail}",
        f"minimized to {mini.steps} steps / {mini.preemptions} preemptions",
        f"reproduce with: {cmd}",
        "schedule script:",
        ScheduleScript.from_outcome(mini).to_json(),
    ]
    return "\n".join(lines)


class TestExhaustiveProofs:
    def test_acceptance_config_2w_2e_pb2(self):
        """The ISSUE's acceptance bar: 2 writers x 2 events, bound 2."""
        cfg = CheckConfig(writers=2, events=2)
        result = explore_exhaustive(cfg, preemption_bound=2)
        assert result.passed, _explain(
            result,
            "PYTHONPATH=src python -m repro.cli check "
            "--writers 2 --events 2 --preemption-bound 2",
        )
        assert not result.truncated
        # the space is non-trivial: hundreds of distinct interleavings
        assert _space(result) == PROOFS["2x2-pb2"][2]

    def test_wider_buffer_pb2(self):
        cfg = CheckConfig(writers=2, events=2, buffer_words=16)
        result = explore_exhaustive(cfg, preemption_bound=2)
        assert result.passed, _explain(
            result,
            "PYTHONPATH=src python -m repro.cli check --writers 2 "
            "--events 2 --buffer-words 16 --preemption-bound 2",
        )
        assert _space(result) == PROOFS["2x2-bw16-pb2"][2]

    def test_three_writers_pb1(self):
        cfg = CheckConfig(writers=3, events=1, num_buffers=8)
        result = explore_exhaustive(cfg, preemption_bound=1)
        assert result.passed, _explain(
            result,
            "PYTHONPATH=src python -m repro.cli check --writers 3 "
            "--events 1 --preemption-bound 1",
        )
        assert _space(result) == PROOFS["3x1-pb1"][2]

    def test_kills_pb1(self):
        """Killed writers: torn buffers flagged, clean buffers not."""
        cfg = CheckConfig(writers=2, events=2, kills=1)
        result = explore_exhaustive(cfg, preemption_bound=1)
        assert result.passed, _explain(
            result,
            "PYTHONPATH=src python -m repro.cli check --writers 2 "
            "--events 2 --kills 1 --preemption-bound 1",
        )
        assert _space(result) == PROOFS["2x2-kills1-pb1"][2]

    def test_concurrent_reader_pb1(self):
        """A reader sees only consistent data in committed-covered buffers."""
        cfg = CheckConfig(writers=2, events=2, reader=True, reader_steps=3)
        result = explore_exhaustive(cfg, preemption_bound=1)
        assert result.passed, _explain(
            result,
            "PYTHONPATH=src python -m repro.cli check --writers 2 "
            "--events 2 --reader --preemption-bound 1",
        )
        assert _space(result) == PROOFS["2x2-reader-pb1"][2]

    def test_max_schedules_reports_truncation(self):
        cfg = CheckConfig(writers=2, events=2)
        result = explore_exhaustive(cfg, preemption_bound=2, max_schedules=5)
        assert result.passed and result.truncated
        assert result.schedules == 5


class TestBackendEquivalence:
    @pytest.mark.parametrize("name", sorted(PROOFS))
    def test_shm_lane_explores_the_private_space(self, name):
        """One shm CPU is the private system over a real segment: the
        same scheduling points, so the same schedules and steps."""
        overrides, bound, space = PROOFS[name]
        cfg = CheckConfig(shm=True, shm_cpus=1, **overrides)
        result = explore_exhaustive(cfg, preemption_bound=bound)
        flags = " ".join(
            f"--{k.replace('_', '-')}" + ("" if v is True else f" {v}")
            for k, v in overrides.items())
        assert result.passed, _explain(
            result,
            f"PYTHONPATH=src python -m repro.cli check --shm {flags} "
            f"--preemption-bound {bound}",
        )
        assert _space(result) == space


class TestRandomMode:
    def test_random_clean_and_reproducible(self):
        cfg = CheckConfig(writers=2, events=2, kills=1, reader=True)
        a = explore_random(cfg, schedules=60, seed=13)
        b = explore_random(cfg, schedules=60, seed=13)
        assert a.passed, (
            f"violation: {a.violation} at seed 13 iteration {a.iteration}; "
            f"re-run: PYTHONPATH=src python -m repro.cli check "
            f"--mode random --writers 2 --events 2 --kills 1 --reader "
            f"--schedules 60 --seed 13"
        )
        assert a.steps == b.steps  # same seed, same schedules

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_random_seeds_pass(self, seed):
        cfg = CheckConfig(writers=2, events=1)
        result = explore_random(cfg, schedules=40, seed=seed)
        assert result.passed, (
            f"violation {result.violation} at seed {seed} iteration "
            f"{result.iteration}; re-run: PYTHONPATH=src python -m "
            f"repro.cli check --mode random --writers 2 --events 1 "
            f"--schedules 40 --seed {seed}"
        )
