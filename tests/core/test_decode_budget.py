"""The decoder's work follows events and buffers, never words.

A time would say this only on a quiet machine; a count of Python-level
calls says it everywhere.  An empty ring slot is the case that matters:
it is one garble verdict at word 0, and deciding that the other 1023
words hold nothing to resynchronize on must not visit them one by one.
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
from repro.core.timestamps import ManualClock

SLOTS = 64
BUFFER_WORDS = 1024
#: Calls allowed per buffer and per event, Python functions and
#: builtins both counted.  An empty buffer takes ~30 (its share of the
#: pooled walk, one full walk, one resync turned away, one anomaly); an
#: event takes one (the chain append) plus a share of its CPU's fold.
PER_BUFFER = 60
PER_EVENT = 3


def ring_with_one_live_buffer():
    control = TraceControl(buffer_words=BUFFER_WORDS, num_buffers=SLOTS)
    mask = TraceMask()
    mask.enable_all()
    clock = ManualClock()
    logger = TraceLogger(control, mask, clock, registry=default_registry())
    logger.start()
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

    ref = reference_decode(records, registry=reg)
    assert [(e.seq, e.offset, e.ts32, e.major, e.minor, e.data, e.time)
            for e in trace.events(0)] == \
        [(e.seq, e.offset, e.ts32, e.major, e.minor, e.data, e.time)
         for e in ref.events(0)]
    assert [(a.seq, a.offset, a.kind, a.detail) for a in trace.anomalies] \
        == [(a.seq, a.offset, a.kind, a.detail) for a in ref.anomalies]
