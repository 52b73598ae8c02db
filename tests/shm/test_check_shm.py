"""The model checker must cover the shared-memory seam.

With ``shm=True`` the one checked system's lanes are the CPUs of a real
segment: the stepped store wraps each writer's lane store over it
(control words, committed counts, trace words), clean configurations pass
exhaustive exploration, the lane-ownership cases are proved, and a run
leaves no shared-memory segment behind.  The three seam mutants are
caught and replayed with the logger mutants in
``tests/check/test_mutants.py``.
"""

import pytest

from repro.check import CheckConfig, explore_exhaustive
from repro.check.coop import READY
from repro.check.harness import CheckedSystem, ConfigError
from repro.check.mutants import LOGGER, MUTANTS
from repro.shm.lanes import GENERATION_SHIFT, PID_MASK
from tests.shm.test_multiproc import shm_segments


class TestCleanConfigurations:
    def test_two_writers_over_shm(self):
        cfg = CheckConfig(shm=True, shm_cpus=2, writers=2, events=1)
        result = explore_exhaustive(cfg, preemption_bound=1)
        assert result.passed, result.violation
        assert result.schedules > 1

    def test_writer_races_collector(self):
        cfg = CheckConfig(shm=True, shm_cpus=1, writers=1, events=2,
                          collector_steps=2)
        result = explore_exhaustive(cfg, preemption_bound=1)
        assert result.passed, result.violation

    def test_no_segment_leaks(self):
        before = shm_segments()
        cfg = CheckConfig(shm=True, shm_cpus=1, writers=2, events=1)
        explore_exhaustive(cfg, preemption_bound=1)
        assert shm_segments() == before


class TestShmMutants:
    def test_registry_disjoint_from_logger_mutants(self):
        seams = {n: s for n, s in MUTANTS.items() if s.seam != LOGGER}
        assert {n: s.seam for n, s in seams.items()} == {
            "missed-flush-on-death": "collector",
            "stale-attach-offset": "attach geometry",
            "unlocked-lane-claim": "lane owner",
        }
        for name, spec in seams.items():
            assert spec.config.get("shm") is True
            assert spec.summary
            with pytest.raises(ConfigError, match="needs shm=True"):
                CheckConfig(mutant=name).validate()


class TestComposition:
    def test_logger_mutant_composes_over_shm(self):
        """The PR-4 logger mutants run unchanged over the shm seam —
        the protocol is the same object, only the memory moved."""
        cfg = CheckConfig(mutant="non-atomic-reserve", shm=True,
                          shm_cpus=1, writers=2, events=1)
        result = explore_exhaustive(cfg, preemption_bound=2)
        assert not result.passed
        assert result.violation.invariant in (
            "double-write", "lost-or-reordered-events",
        ), result.violation


def _proves(bound, **overrides):
    result = explore_exhaustive(CheckConfig(shm=True, **overrides),
                                preemption_bound=bound)
    assert result.passed, result.violation
    assert result.schedules > 1


class _Drive:
    """One hand-picked schedule over a checked system, steps checked."""

    def __init__(self, **overrides):
        self.system = CheckedSystem(CheckConfig(shm=True, **overrides))
        self.killed = []

    def run(self, tid, until=None):
        """Step ``tid`` until it parks at ``until`` (or to its end)."""
        task = self.system.runtime.tasks[tid]
        while task.state == READY and (until is None
                                       or task.pending != until):
            self.system.runtime.step(task)
            assert self.system.after_step(0) is None
        return self

    def kill(self, tid):
        self.system.runtime.kill(self.system.runtime.tasks[tid])
        self.killed.append(tid)
        return self

    def owner(self):
        word = self.system.region.owner_word(0).peek()
        return word & PID_MASK, word >> GENERATION_SHIFT

    def finish(self):
        try:
            for task in self.system.runtime.tasks:
                self.run(task.tid)
            assert self.system.final_checks(self.killed) is None
        finally:
            self.system.runtime.shutdown()
            self.system.close()


class TestOwnerLanes:
    """The four ownership cases, proved over every schedule within the
    bound; each proof is paired with one schedule showing the case is
    really reached."""

    def test_owner_killed_between_reserve_and_commit(self):
        _proves(1, writers=1, events=2, kills=1, rivals=1)
        drive = _Drive(writers=1, events=2, rivals=1)
        drive.run(0, until="cpu0.committed[0].load").kill(0)
        assert drive.system.lanes[0].probe.torn_seqs(0) == {0}
        drive.run(1)
        assert drive.owner() == (0, 2)  # taken at gen + 1, then released
        assert drive.system.silent == set()
        drive.finish()  # only the torn buffer is flagged

    def test_second_live_process_is_refused(self):
        _proves(2, writers=1, events=1, rivals=1)
        drive = _Drive(writers=1, events=1, rivals=1)
        drive.run(0, until="cpu0.index.load").run(1)
        assert drive.system.silent == {1}
        assert drive.owner() == (100, 1)
        drive.finish()

    def test_pid_reused_after_crash(self):
        _proves(2, writers=1, events=1, kills=1, rivals=1, pid_reuse=True)
        drive = _Drive(writers=1, events=1, rivals=1, pid_reuse=True)
        drive.run(0, until="cpu0.index.cas").kill(0).run(1)
        assert drive.system.silent == set()
        assert drive.owner() == (0, 2)  # a clean takeover, then release
        drive.finish()

    def test_claims_race_to_one_owner(self):
        _proves(2, writers=1, events=1, rivals=2)

    def test_follower_races_owner_across_buffer_boundary(self):
        config = dict(writers=1, events=4, collector_steps=2)
        _proves(1, **config)
        drive = _Drive(**config).run(0)
        assert drive.system.region.index_word(0).peek() > 8  # crossed
        drive.finish()
