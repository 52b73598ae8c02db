"""The decoder's work follows events and buffers, never words.

A time would say this only on a quiet machine; a count of Python-level
calls says it everywhere.  An empty ring slot is the case that matters:
it is one garble verdict at word 0, and deciding that the other 1023
words hold nothing to resynchronize on must not visit them one by one.
The other is a seek (§3.2): a few small buffers cut from the middle of a
trace, where what a decode costs before its first event is most of it.
"""

import sys

import numpy as np

from repro.check.oracle import reference_decode
from repro.core.buffers import BufferRecord, TraceControl
from repro.core.columnar import decode_records_columnar
from repro.core.logger import TraceLogger
from repro.core.majors import Major
from repro.core.mask import TraceMask
from repro.core.registry import default_registry
from repro.core.stream import flat_records
from repro.core.timestamps import ManualClock

SLOTS = 64
BUFFER_WORDS = 1024
#: Calls allowed per buffer and per event, Python functions and
#: builtins both counted.  An empty buffer takes ~30 (its share of the
#: pooled walk, one full walk, one resync turned away, one anomaly); an
#: event takes one (the chain append) plus a share of its CPU's fold.
PER_BUFFER = 60
PER_EVENT = 3
#: Calls one decode pays however little it is given (assembler, per-CPU
#: fold, column concatenation).  Measured at PR 16: windows of 1, 2, 3
#: and 6 buffers cost 150 + 23 per buffer + 1 per event.
FIXED = 150
WINDOW = 3
WINDOW_BUFFER_WORDS = 256


def started_logger(buffer_words):
    control = TraceControl(buffer_words=buffer_words, num_buffers=SLOTS)
    mask = TraceMask()
    mask.enable_all()
    clock = ManualClock()
    logger = TraceLogger(control, mask, clock, registry=default_registry())
    logger.start()
    return control, clock, logger


def ring_with_one_live_buffer():
    control, clock, logger = started_logger(BUFFER_WORDS)
    for i in range(300):
        clock.advance(5)
        logger.log_words(Major.TEST, 1, [i, i])
    (live,) = control.flush()
    empty = [
        BufferRecord(cpu=0, seq=seq,
                     words=np.zeros(BUFFER_WORDS, dtype=np.uint64),
                     committed=BUFFER_WORDS, fill_words=BUFFER_WORDS)
        for seq in range(1, SLOTS)
    ]
    return [live, *empty]


def window_of_flat_trace():
    """``WINDOW`` buffers from the middle of a raw, unframed word array,
    the way ``benchmarks/bench_random_access.py`` seeks into one."""
    control, clock, logger = started_logger(WINDOW_BUFFER_WORDS)
    rng = np.random.default_rng(11)
    for i in range(3_000):
        clock.advance(3)
        logger.log_words(Major.TEST, 1, [i] * int(rng.integers(0, 5)))
    flat = np.concatenate([r.words for r in control.flush() if not r.partial])
    middle = len(flat) // WINDOW_BUFFER_WORDS // 2
    start = middle * WINDOW_BUFFER_WORDS
    return flat_records(flat[start:start + WINDOW * WINDOW_BUFFER_WORDS],
                        WINDOW_BUFFER_WORDS, start_seq=middle)


def count_calls(fn):
    calls = 0

    def profiler(_frame, event, _arg):
        nonlocal calls
        if event in ("call", "c_call"):
            calls += 1

    sys.setprofile(profiler)
    try:
        result = fn()
    finally:
        sys.setprofile(None)
    return result, calls


def assert_equals_reference(trace, ref):
    assert [(e.seq, e.offset, e.ts32, e.major, e.minor, e.data, e.time)
            for e in trace.cpu_batch(0).events()] == \
        [(e.seq, e.offset, e.ts32, e.major, e.minor, e.data, e.time)
         for e in ref.events(0)]
    assert [(a.seq, a.offset, a.kind, a.detail) for a in trace.anomalies] \
        == [(a.seq, a.offset, a.kind, a.detail) for a in ref.anomalies]


def test_decode_calls_bounded_by_buffers_and_events():
    records = ring_with_one_live_buffer()
    reg = default_registry()
    trace, calls = count_calls(
        lambda: decode_records_columnar(records, registry=reg))
    events = len(trace.cpu_batch(0))
    assert events > 300
    assert calls <= PER_BUFFER * SLOTS + PER_EVENT * events, calls

    garbled = [a for a in trace.anomalies if a.kind == "garbled"]
    assert len(garbled) == SLOTS - 1
    assert {a.seq for a in garbled} == set(range(1, SLOTS))

    assert_equals_reference(
        trace, reference_decode(records, registry=reg))


def test_seek_window_calls_bounded_by_a_fixed_cost():
    records = window_of_flat_trace()
    assert len(records) == WINDOW
    reg = default_registry()
    trace, calls = count_calls(
        lambda: decode_records_columnar(records, registry=reg,
                                        check_committed=False))
    events = len(trace.cpu_batch(0))
    assert events > 50 * WINDOW
    assert calls <= FIXED + PER_BUFFER * WINDOW + PER_EVENT * events, calls
    assert_equals_reference(
        trace, reference_decode(records, registry=reg,
                                check_committed=False))
