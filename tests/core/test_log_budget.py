"""A count-based budget for the writer's fast path.

The paper states its cost per event as a count (4 instructions when
masked, §3.2); wall-clock timings on a shared host are noise, so this
budget counts instead.  ``sys.setprofile`` sees every Python-level call
and every call into C, including the emulated atomics' micro-lock.  The
counts are exact and deterministic: no clock is read by the assertions.

A lock acquisition is counted at its release (``release`` or a ``with``
block's ``__exit__``): CPython reports a ``with`` block's ``__exit__``
to the profiler but not its ``__enter__``, and every acquisition on the
fast path is released before the call returns.
"""

import _thread
import sys
from collections import Counter

import pytest

from repro.core.facility import TraceFacility
from repro.core.majors import Major

#: Python-level calls of one private log1 inside a buffer:
#: log1, _log_unmasked, _reserve, clock.now, index.load,
#: index.compare_and_store, commit, committed.load,
#: committed.compare_and_store.
LOG1_PY_CALLS = 9
#: The reserve CAS and the commit CAS; loads take none.
LOG1_LOCKS = 2
#: A masked call is the mask test and nothing else.
MASKED_PY_CALLS = 1

MAJOR = int(Major.TEST)


def _profile(fn, *args):
    """Run ``fn(*args)`` under a profiler; return (py_calls, lock_acquisitions)."""
    counts = Counter()

    def prof(frame, event, arg):
        if event == "call":
            counts["py"] += 1
        elif (event == "c_call"
              and getattr(arg, "__name__", "") in ("release", "__exit__")
              and isinstance(getattr(arg, "__self__", None), _thread.LockType)):
            counts["locks"] += 1

    sys.setprofile(prof)
    try:
        fn(*args)
    finally:
        sys.setprofile(None)
    return counts["py"], counts["locks"]


@pytest.fixture
def logger():
    fac = TraceFacility(mode="flight")
    fac.enable_all()
    lg = fac.logger(0)
    for i in range(16):  # steady state: past start-up and first booking
        lg.log1(MAJOR, 1, i)
    return lg


def test_log1_takes_two_locks(logger):
    ctl = logger.control
    seq = ctl.index.load() // ctl.buffer_words
    py_calls, locks = _profile(logger.log1, MAJOR, 1, 42)
    assert ctl.index.load() // ctl.buffer_words == seq  # no boundary crossed
    assert locks == LOG1_LOCKS
    assert py_calls == LOG1_PY_CALLS


def test_masked_log1_takes_no_lock_and_one_call(logger):
    logger.mask.disable(MAJOR)
    before = logger.control.index.load()
    py_calls, locks = _profile(logger.log1, MAJOR, 1, 42)
    assert logger.control.index.load() == before
    assert locks == 0
    assert py_calls == MASKED_PY_CALLS
