"""A count-based budget for the writer's fast path, for every writer.

The paper states its cost per event as a count (4 instructions when
masked, §3.2); wall-clock timings on a shared host are noise, so this
budget counts instead.  ``sys.setprofile`` sees every Python-level call
and every call into C: the compare-and-store's lock and, on a shared
segment, ``fcntl.lockf`` (one syscall each).  The counts are exact and
deterministic: no clock is read by the assertions.

Private and shared-memory logging run one body over a lane of 64-bit
words (:mod:`repro.core.lane`), so one budget holds for all three
writers: a private facility, a logger bound to a shm lane this process
owns, and a control over a lane nobody claimed — which still takes the
cross-process lock, two ``lockf`` calls per compare-and-store.

A lock acquisition is counted at its release (``release`` or a ``with``
block's ``__exit__``): CPython reports a ``with`` block's ``__exit__``
to the profiler but not its ``__enter__``, and every acquisition on the
fast path is released before the call returns.

The same lane store also states §3's *scalable* as a count: logging on
one CPU touches no word outside that CPU's lane, and an event stores
exactly its own words plus one index and one commit word.
"""

import _thread
import fcntl
import random
import sys
from collections import Counter

import pytest

from repro.core.facility import TraceFacility
from repro.core.lane import LaneStore
from repro.core.logger import TraceLogger
from repro.core.majors import Major
from repro.core.mask import TraceMask
from repro.shm import ShmTraceRegion
from repro.shm.region import HEADER_WORDS

#: Python-level calls of one in-buffer log1: log1, _log_unmasked,
#: _reserve, clock.now, the reserve's store.cas, commit, the commit's
#: store.cas.  Loads and trace-word stores are indexing, not calls.
LOG1_PY_CALLS = 7
#: The reserve CAS and the commit CAS; loads take none.
LOG1_LOCKS = 2
#: fcntl.lockf calls: none private or on an owned lane, a lock/unlock
#: pair per CAS on an unowned one.
LOG1_LOCKF = {"private": 0, "owned": 0, "unowned": 4}
#: A masked call is the mask test and nothing else.
MASKED_PY_CALLS = 1

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


def _enabled_mask():
    mask = TraceMask()
    mask.enable_all()
    return mask


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


def _writer(kind, region):
    reg, attached = region
    if kind == "private":
        fac = TraceFacility(mode="flight")
        fac.enable_all()
        logger = fac.logger(0)
    elif kind == "owned":
        logger = attached.logger(0)
    else:
        logger = TraceLogger(reg.control(1), _enabled_mask(), reg.clock())
    for i in range(16):  # steady state: past start-up and first booking
        logger.log1(MAJOR, 1, i)
    return logger


@pytest.mark.parametrize("kind", sorted(LOG1_LOCKF))
def test_log1_budget(kind, region):
    logger = _writer(kind, region)
    ctl = logger.control
    seq = ctl.index() // ctl.buffer_words
    counts = _profile(logger.log1, MAJOR, 1, 42)
    assert ctl.index() // ctl.buffer_words == seq  # no boundary crossed
    assert counts["py"] == LOG1_PY_CALLS
    assert counts["locks"] == LOG1_LOCKS
    assert counts["lockf"] == LOG1_LOCKF[kind]


def test_masked_log1_takes_no_lock_and_one_call(region):
    logger = _writer("private", region)
    logger.mask.disable(MAJOR)
    before = logger.control.index()
    counts = _profile(logger.log1, MAJOR, 1, 42)
    assert logger.control.index() == before
    assert counts["locks"] == 0
    assert counts["py"] == MASKED_PY_CALLS


class RecordingStore(LaneStore):
    """A lane store that records every word it reads, stores or CASes."""

    __slots__ = ("touched",)

    def __init__(self, inner: LaneStore) -> None:
        super().__init__(_RecordingWords(inner.mem, self), inner.lock)
        self.touched = []

    def cas(self, i, old, new):
        self.touched.append(("cas", i))
        with self.lock:
            raw = self.mem.raw
            if raw[i] != old:
                return False
            raw[i] = new
            return True


class _RecordingWords:
    def __init__(self, raw, store):
        self.raw = raw
        self.store = store

    def __len__(self):
        return len(self.raw)

    def __getitem__(self, i):
        self.store.touched.append(("load", i))
        return self.raw[i]

    def __setitem__(self, i, value):
        self.store.touched.append(("store", i))
        self.raw[i] = value


def _recorded_logger(attached, cpu):
    attached.claim(cpu)
    store = RecordingStore(attached.lane_store(cpu))
    logger = TraceLogger(attached.control(cpu, store=store),
                         _enabled_mask(), attached.clock())
    return logger, store


def test_logging_on_one_cpu_touches_only_its_lane(region):
    """§3: per-CPU state is private to its CPU.  A seeded mix on CPU 0
    that crosses buffer boundaries (fillers, booking, anchors) touches
    no header word and no word of CPU 1's lane."""
    _reg, attached = region
    lay = attached.layout
    logger, store = _recorded_logger(attached, 0)
    rng = random.Random(32)
    start = logger.control.index()
    while logger.control.index() < start + 2 * lay.buffer_words + 17:
        logger.log_words(MAJOR, 1, [rng.getrandbits(64)
                                    for _ in range(rng.randrange(9))])
    ctl = logger.control
    assert ctl.stats_fillers + ctl.stats_exact_boundary >= 2  # 2 bookings
    touched = {i for _op, i in store.touched}
    assert not touched & set(range(HEADER_WORDS))
    assert not touched & set(range(lay.cpu_base(1),
                                   lay.cpu_base(1) + lay.cpu_words))
    assert touched <= set(range(lay.cpu_base(0),
                                lay.cpu_base(0) + lay.cpu_words))


def test_log1_stores_its_words_plus_index_and_commit(region):
    """The paper's unit of cost is a count: an in-buffer log1 of
    ``nwords`` data words stores ``1 + nwords`` trace words, and
    compare-and-stores one index word and one commit word."""
    _reg, attached = region
    logger, store = _recorded_logger(attached, 0)
    logger.log1(MAJOR, 1, 0)  # past the fresh anchor's booking
    ctl = logger.control
    for method, args in (("log0", ()), ("log1", (7,)), ("log3", (1, 2, 3))):
        del store.touched[:]
        seq = ctl.index() // ctl.buffer_words
        getattr(logger, method)(MAJOR, 1, *args)
        assert ctl.index() // ctl.buffer_words == seq
        trace = range(ctl.trace_at, ctl.trace_at + ctl.total_words)
        stores = [i for op, i in store.touched if op == "store"]
        cases = [i for op, i in store.touched if op == "cas"]
        assert len(stores) == 1 + len(args)
        assert all(i in trace for i in stores)
        assert cases == [ctl.index_at, ctl.committed_at + seq % 8]
