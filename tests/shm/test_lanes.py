"""Lane ownership in real processes: claim, release, takeover, fork.

One process binds each CPU's lane (:mod:`repro.shm.lanes`).  The claim
is held to the hygiene bar of a lock file: binding twice is one claim,
a refused bind leaks no descriptor and still closes cleanly, the last
close frees the lane for another process, a SIGKILLed owner's lane is
taken over at generation + 1, and a forked child cannot log on a lane
it inherited.
"""

import multiprocessing
import os
import signal
import time

import pytest

from repro.core.majors import Major
from repro.core.stream import TraceReader
from repro.shm import ShmCollector, ShmLaneBusy, ShmTraceRegion
from repro.shm.lanes import GENERATION_SHIFT, PID_MASK
from repro.shm.procs import writer_main
from tests.shm.test_multiproc import START_METHODS

pytestmark = pytest.mark.skipif(
    not START_METHODS, reason="no multiprocessing start method available")

BUFFER_WORDS = 64


def owner(region, cpu=0):
    """``(pid, generation)`` from the lane's owner word."""
    word = region.owner_word(cpu).peek()
    return word & PID_MASK, word >> GENERATION_SHIFT


@pytest.fixture
def region():
    reg = ShmTraceRegion.create(ncpus=1, buffer_words=BUFFER_WORDS,
                                num_buffers=64)
    try:
        yield reg
    finally:
        reg.close()
        reg.unlink()


def _ctx():
    return multiprocessing.get_context(START_METHODS[0])


def _hold_main(name, ready, release):
    """Bind lane 0 and hold it until released."""
    region = ShmTraceRegion.attach(name)
    try:
        region.logger(0)
        ready.set()
        release.wait(30)
    finally:
        region.close()


def _bind_main(name, events):
    """Bind lane 0, log, exit."""
    region = ShmTraceRegion.attach(name)
    try:
        logger = region.logger(0)
        for i in range(events):
            logger.log1(Major.TEST, 2, i)
    finally:
        region.close()


def _inherited_main(attached, logger, out):
    """In a forked child: the parent's lane must refuse us both ways."""
    refused = []
    for attempt in (lambda: logger.log1(Major.TEST, 3, 0),
                    lambda: attached.logger(0)):
        try:
            attempt()
        except ShmLaneBusy as exc:
            refused.append(exc.pid)
    attached.close()  # must not release the parent's lane
    out.put(refused)


def test_create_leaves_every_lane_unowned(region):
    assert owner(region) == (0, 0)
    assert region.index_word(0).peek() > 0  # yet the anchors are there


def test_two_attaches_in_one_process_share_one_claim(region):
    a = ShmTraceRegion.attach(region.name)
    b = ShmTraceRegion.attach(region.name)
    try:
        a.logger(0)
        assert owner(region) == (os.getpid(), 1)
        b.logger(0)
        a.logger(0)
        assert owner(region) == (os.getpid(), 1)  # no second claim
        a.close()
        assert owner(region) == (os.getpid(), 1)  # b still binds it
    finally:
        a.close()
        b.close()
    assert owner(region) == (0, 1)


@pytest.mark.skipif(not os.path.isdir("/proc/self/fd"),
                    reason="counts descriptors through /proc")
def test_refused_bind_leaks_no_fd_and_closes_cleanly(region):
    ctx = _ctx()
    ready, release = ctx.Event(), ctx.Event()
    p = ctx.Process(target=_hold_main, args=(region.name, ready, release))
    p.start()
    try:
        assert ready.wait(30)
        before = len(os.listdir("/proc/self/fd"))
        attached = ShmTraceRegion.attach(region.name)
        with pytest.raises(ShmLaneBusy) as err:
            attached.logger(0)
        attached.close()
        assert len(os.listdir("/proc/self/fd")) == before
        assert err.value.pid == p.pid
        assert owner(region) == (p.pid, 1)
    finally:
        release.set()
        p.join(30)
    assert p.exitcode == 0
    assert owner(region) == (0, 1)


def test_last_close_frees_the_lane_for_another_process(region):
    attached = ShmTraceRegion.attach(region.name)
    attached.logger(0).log1(Major.TEST, 1, 0)
    attached.close()
    p = _ctx().Process(target=_bind_main, args=(region.name, 10))
    p.start()
    p.join(30)
    assert p.exitcode == 0
    assert owner(region) == (0, 2)


def test_sigkilled_owner_is_taken_over_at_next_generation(region):
    p = _ctx().Process(target=writer_main,
                       args=(region.name, 0, 50, 1, None, True))
    p.start()
    deadline = time.monotonic() + 30
    while region.index_word(0).peek() < 4 * BUFFER_WORDS:
        assert time.monotonic() < deadline, "writer too slow"
        time.sleep(0.001)
    os.kill(p.pid, signal.SIGKILL)
    p.join(30)  # reaped: a zombie would still answer kill(pid, 0)
    assert p.exitcode == -signal.SIGKILL
    assert owner(region) == (p.pid, 1)
    torn = (region.index_word(0).peek() - 1) // BUFFER_WORDS
    attached = ShmTraceRegion.attach(region.name)
    try:
        logger = attached.logger(0)
        assert owner(region) == (os.getpid(), 2)
        events = 3 * BUFFER_WORDS
        for i in range(events):
            logger.log1(Major.TEST, 9, i)
        region.set_done()
        trace = TraceReader(check_committed=True).decode_records(
            ShmCollector(region).finalize())
    finally:
        attached.close()
    assert {a.seq for a in trace.anomalies
            if a.kind != "missing-anchor"} <= {torn}
    got = [int(e.data[0]) for e in trace.events(0)
           if e.major == Major.TEST and e.minor == 9]
    assert got == list(range(events))[-len(got):]
    assert len(got) >= events - BUFFER_WORDS  # only the torn buffer's


@pytest.mark.skipif("fork" not in multiprocessing.get_all_start_methods(),
                    reason="needs fork")
def test_forked_child_cannot_log_on_an_inherited_lane(region):
    ctx = multiprocessing.get_context("fork")
    attached = ShmTraceRegion.attach(region.name)
    try:
        logger = attached.logger(0)
        out = ctx.Queue()
        p = ctx.Process(target=_inherited_main, args=(attached, logger, out))
        p.start()
        refused = out.get(timeout=30)
        p.join(30)
        assert p.exitcode == 0
        assert refused == [os.getpid(), os.getpid()]
        assert owner(region) == (os.getpid(), 1)
        assert logger.log1(Major.TEST, 1, 0)  # the parent still logs
    finally:
        attached.close()
    assert owner(region) == (0, 1)
