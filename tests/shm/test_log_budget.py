"""A count-based budget for the shm writer's fast path.

The sibling of ``tests/core/test_log_budget.py`` for a logger bound to a
shared-memory lane.  ``sys.setprofile`` sees every Python-level call and
every call into C, including ``fcntl.lockf`` (one syscall each) and the
thread-lock releases of the micro-lock.  The counts are exact and
deterministic: no clock is read by the assertions.

A lane the process owns costs no ``lockf`` at all; a lane nobody claimed
still takes the full cross-process lock, two ``lockf`` calls per
compare-and-store, and is measured here too so that path stays honest.
"""

import _thread
import fcntl
import sys
from collections import Counter

import pytest

from repro.core.logger import TraceLogger
from repro.core.majors import Major
from repro.core.mask import TraceMask
from repro.shm import ShmTraceRegion

#: Python-level calls of one shm log1 inside a buffer: log1,
#: _log_unmasked, _reserve, index.load, clock.now,
#: index.compare_and_store + lock acquire/release, two trace-word
#: stores + their bounds checks, commit, committed.load + _at,
#: committed.compare_and_store + _at + lock acquire/release.
LOG1_PY_CALLS = 19
#: The reserve CAS and the commit CAS; loads take none.
LOG1_LOCKS = 2
#: fcntl.lockf calls: none on an owned lane, a lock/unlock pair per CAS
#: on an unowned one.
OWNED_LOCKF = 0
UNOWNED_LOCKF = 4

MAJOR = int(Major.TEST)


def _profile(fn, *args):
    """Run ``fn(*args)`` under a profiler; return the counts."""
    counts = Counter()

    def prof(frame, event, arg):
        if event == "call":
            counts["py"] += 1
        elif event == "c_call":
            if arg is fcntl.lockf:
                counts["lockf"] += 1
            elif (getattr(arg, "__name__", "") in ("release", "__exit__")
                  and isinstance(getattr(arg, "__self__", None),
                                 _thread.LockType)):
                counts["locks"] += 1

    sys.setprofile(prof)
    try:
        fn(*args)
    finally:
        sys.setprofile(None)
    return counts


@pytest.fixture
def region():
    reg = ShmTraceRegion.create(ncpus=2, buffer_words=1024, num_buffers=8)
    attached = ShmTraceRegion.attach(reg.name)
    try:
        yield reg, attached
    finally:
        attached.close()
        reg.close()
        reg.unlink()


def _steady(logger):
    for i in range(16):  # past start-up and first booking
        logger.log1(MAJOR, 1, i)
    return logger


def _in_buffer_log1(logger):
    ctl = logger.control
    seq = ctl.index.load() // ctl.buffer_words
    counts = _profile(logger.log1, MAJOR, 1, 42)
    assert ctl.index.load() // ctl.buffer_words == seq  # no boundary crossed
    return counts


def test_owned_lane_log1_makes_no_syscall(region):
    _reg, attached = region
    counts = _in_buffer_log1(_steady(attached.logger(0)))
    assert counts["lockf"] == OWNED_LOCKF
    assert counts["locks"] == LOG1_LOCKS
    assert counts["py"] == LOG1_PY_CALLS


def test_unowned_control_keeps_the_fcntl_lock(region):
    reg, _attached = region
    mask = TraceMask()
    mask.enable_all()
    logger = _steady(TraceLogger(reg.control(1), mask, reg.clock()))
    counts = _in_buffer_log1(logger)
    assert counts["lockf"] == UNOWNED_LOCKF
    assert counts["locks"] == LOG1_LOCKS
    assert counts["py"] == LOG1_PY_CALLS
