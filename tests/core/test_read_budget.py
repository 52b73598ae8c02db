"""Reading a ring costs a fixed number of calls per buffer, never per word.

Every reader of a lane — the flight-recorder snapshot, the crash-dump
reader and the collector's poll (the shm collector's, and the one a
write-out lane's booker drives) — goes through one function,
:func:`repro.core.buffers.read_lane`.  Its work is counted here the way
``tests/core/test_decode_budget.py`` counts the decoder's: Python-level
calls, functions and builtins both, which say the same on any machine.
A quiesced lane is copied once per record and never re-copied.
"""

import sys

import numpy as np
import pytest

from repro.core.buffers import TraceControl
from repro.core.crashdump import dump_bytes, read_dump
from repro.core.logger import TraceLogger
from repro.core.majors import Major
from repro.core.mask import TraceMask
from repro.core.timestamps import ManualClock
from repro.shm import ShmCollector, ShmTraceRegion

SLOTS = 16
#: Calls per buffer read, and per read whatever it is given.  Measured
#: when the readers became one (6, 6 and 7 per buffer); the three
#: copies before it paid 9, 6 and 9.
PER_BUFFER = {"snapshot": 6, "read_dump": 6, "poll": 7}
FIXED = {"snapshot": 15, "read_dump": 29, "poll": 9}
#: Calls a write-out lane's logging pays per buffer its booker copies
#: out, over what a flight lane pays to log the same events.  Measured
#: when the copy became the collector's (17); the write-out queue
#: before it paid 21.35.
WRITEOUT_PER_COPY = 17


def count_calls(fn):
    """``(result, calls, np.array calls)`` of ``fn()``."""
    calls = copies = 0

    def profiler(_frame, event, arg):
        nonlocal calls, copies
        if event in ("call", "c_call"):
            calls += 1
            copies += arg is np.array

    sys.setprofile(profiler)
    try:
        result = fn()
    finally:
        sys.setprofile(None)
    return result, calls, copies


def fill(logger, clock, buffers):
    """Log into ``logger``'s lane until ``buffers`` buffers are full and
    the next one has a few words reserved."""
    control = logger.control
    i = 0
    while control.index() < buffers * control.buffer_words + 3:
        clock.advance(3)
        logger.log1(Major.TEST, 1, i)
        i += 1


def private_logger(buffer_words, num_buffers=SLOTS, mode="flight"):
    mask = TraceMask()
    mask.enable_all()
    clock = ManualClock()
    control = TraceControl(buffer_words=buffer_words,
                           num_buffers=num_buffers, mode=mode)
    logger = TraceLogger(control, mask, clock)
    logger.start()
    return logger, clock


def private_ring(buffer_words, buffers):
    logger, clock = private_logger(buffer_words)
    fill(logger, clock, buffers)
    return logger.control


def read(reader, buffer_words, buffers):
    """``(records, calls, copies, unstable copies)`` of one read."""
    if reader == "poll":
        clock = ManualClock()
        region = ShmTraceRegion.create(ncpus=1, buffer_words=buffer_words,
                                       num_buffers=SLOTS, clock=clock)
        try:
            fill(region.logger(0, clock=clock), clock, buffers)
            collector = ShmCollector(region)
            records, calls, copies = count_calls(
                lambda: collector.poll(lag=0))
            return records, calls, copies, collector.stats.unstable_copies
        finally:
            region.close()
            region.unlink()
    control = private_ring(buffer_words, buffers)
    if reader == "snapshot":
        records, calls, copies = count_calls(control.snapshot)
    else:
        image = dump_bytes([control])
        dump, calls, copies = count_calls(lambda: read_dump(image))
        assert dump.intact
        records = dump.records
    return records, calls, copies, 0


@pytest.mark.parametrize("reader", sorted(PER_BUFFER))
def test_read_calls_per_buffer(reader):
    counts = {}
    for buffer_words in (256, 1024):
        for buffers in (4, 12):
            records, calls, copies, unstable = read(
                reader, buffer_words, buffers)
            # The poll emits the full buffers; the snapshot and the
            # dump the partial one too.
            assert len(records) == buffers + (reader != "poll")
            assert calls <= FIXED[reader] + PER_BUFFER[reader] * len(records), \
                (buffer_words, buffers, calls)
            assert copies == len(records)
            assert unstable == 0
            counts[buffer_words, buffers] = calls
    # Flat in the buffer size: the words are copied, never walked.
    assert counts[256, 4] == counts[1024, 4]
    assert counts[256, 12] == counts[1024, 12]
    assert counts[256, 12] - counts[256, 4] <= 8 * PER_BUFFER[reader]


def test_writeout_copy_calls_per_buffer():
    """The booker's copy-out is the collector's poll: a fixed number of
    calls per buffer copied, flat in ``buffer_words``."""
    extra = {}
    for buffer_words in (64, 256):
        calls = {}
        for mode in ("flight", "writeout"):
            logger, clock = private_logger(buffer_words, 8, mode)
            _, calls[mode], copies = count_calls(
                lambda: fill(logger, clock, 40))
            assert logger.control.stats_buffers_completed == 40
        # Past the slack of num_buffers - 2 waiting buffers, every
        # completion copies one out.
        assert copies == 40 - 6
        extra[buffer_words] = (calls["writeout"] - calls["flight"]) / copies
        assert extra[buffer_words] <= WRITEOUT_PER_COPY, extra
    assert extra[64] == extra[256]
