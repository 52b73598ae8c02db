"""Single-threaded tests of the lockless logger's algorithm."""

import pytest

from repro.core.buffers import TraceControl
from repro.core.constants import MAX_EVENT_WORDS
from repro.core.logger import EventTooLargeError, NullTraceLogger, TraceLogger
from repro.core.majors import ControlMinor, Major
from repro.core.mask import TraceMask
from repro.core.registry import default_registry
from repro.core.stream import TraceReader
from repro.core.timestamps import ManualClock


def make_logger(buffer_words=64, num_buffers=4, **kw):
    control = TraceControl(buffer_words=buffer_words, num_buffers=num_buffers, **kw)
    mask = TraceMask()
    mask.enable_all()
    clock = ManualClock()
    logger = TraceLogger(control, mask, clock, registry=default_registry())
    logger.start()
    return logger, control, clock


def decode(control, **kw):
    reader = TraceReader(registry=default_registry(), **kw)
    return reader.decode_records(control.flush())


class TestBasicLogging:
    def test_single_event(self):
        logger, control, clock = make_logger()
        clock.advance(5)
        assert logger.log1(Major.TEST, 1, 0xABC)
        trace = decode(control)
        evs = [e for e in trace.events(0) if e.major == Major.TEST]
        assert len(evs) == 1
        assert evs[0].data == [0xABC]
        assert evs[0].name == "TRC_TEST_EVENT1"

    def test_mask_disabled_logs_nothing(self):
        logger, control, clock = make_logger()
        logger.mask.disable_all()
        assert logger.log1(Major.TEST, 1, 1) is False
        trace = decode(control)
        assert [e for e in trace.events(0) if e.major == Major.TEST] == []

    def test_mask_is_per_major(self):
        logger, control, _ = make_logger()
        logger.mask.set_exactly([Major.CONTROL, Major.MEM])
        assert logger.log1(Major.MEM, 5, 1)
        assert not logger.log1(Major.TEST, 1, 1)

    def test_event_variants_log0_through_log3(self):
        logger, control, _ = make_logger()
        logger.log0(Major.TEST, 0)
        logger.log1(Major.TEST, 1, 1)
        logger.log2(Major.TEST, 2, 1, 2)
        logger.log3(Major.PROC, 2, 1, 2, 3)
        trace = decode(control)
        lens = [len(e.data) for e in trace.events(0)
                if e.major in (Major.TEST, Major.PROC)]
        assert lens == [0, 1, 2, 3]

    def test_log_event_by_name_packs_layout(self):
        logger, control, _ = make_logger()
        logger.log_event("TRC_USER_RUN_UL_LOADER", 6, 7, "/shellServer")
        trace = decode(control)
        ev = trace.filter(name="TRC_USER_RUN_UL_LOADER")[0]
        assert ev.values() == [6, 7, "/shellServer"]
        assert ev.render() == (
            "process 6 created new process with id 7 name /shellServer"
        )

    def test_log_event_unknown_name(self):
        logger, _, _ = make_logger()
        with pytest.raises(KeyError):
            logger.log_event("TRC_DOES_NOT_EXIST", 1)

    def test_too_large_event_rejected(self):
        logger, _, _ = make_logger(buffer_words=64)
        with pytest.raises(EventTooLargeError):
            logger.log_words(Major.TEST, 1, [0] * 64)  # 65 words > buffer

    def test_max_field_event_rejected(self):
        logger, _, _ = make_logger(buffer_words=4096)
        with pytest.raises(EventTooLargeError):
            logger.log_words(Major.TEST, 1, [0] * MAX_EVENT_WORDS)


class TestTimestamps:
    def test_timestamps_monotonic_per_cpu(self):
        logger, control, clock = make_logger()
        for i in range(300):
            clock.advance(3)
            logger.log1(Major.TEST, 1, i)
        trace = decode(control)
        times = [e.time for e in trace.events(0)]
        assert all(a <= b for a, b in zip(times, times[1:]))

    def test_full_time_reconstruction_exact_with_manual_clock(self):
        logger, control, clock = make_logger()
        clock.advance(1000)
        logger.log1(Major.TEST, 1, 0)
        trace = decode(control)
        ev = [e for e in trace.events(0) if e.major == Major.TEST][0]
        assert ev.time == 1000

    def test_reconstruction_across_32bit_wrap(self):
        """Full 64-bit times survive the 32-bit header truncation."""
        logger, control, clock = make_logger(buffer_words=32)
        half = (1 << 31) - 100  # each inter-event gap stays below 2**31
        clock.advance(half)
        logger.log1(Major.TEST, 1, 0)
        clock.advance(half)
        logger.log1(Major.TEST, 1, 1)
        clock.advance(300)  # total now crosses the 2**32 boundary
        logger.log1(Major.TEST, 1, 2)
        trace = decode(control)
        evs = [e for e in trace.events(0) if e.major == Major.TEST]
        assert [e.time for e in evs] == [half, 2 * half, 2 * half + 300]
        assert 2 * half + 300 > (1 << 32)


class TestBufferBoundaries:
    def test_filler_inserted_when_event_does_not_fit(self):
        logger, control, _ = make_logger(buffer_words=32)
        # Anchors take 4 words; log 9 x 3-word events = 27 -> 31 used;
        # next 3-word event cannot fit in the 1 remaining word.
        for i in range(9):
            logger.log2(Major.TEST, 2, i, i)
        logger.log2(Major.TEST, 2, 99, 99)
        assert control.stats_fillers >= 1
        trace = decode(control)
        evs = [e for e in trace.events(0) if e.major == Major.TEST]
        assert len(evs) == 10
        assert not trace.anomalies

    def test_no_event_crosses_boundary_invariant(self):
        logger, control, _ = make_logger(buffer_words=32, num_buffers=4)
        import random
        rng = random.Random(42)
        for i in range(500):
            n = rng.randint(0, 6)
            logger.log_words(Major.TEST, 1, list(range(n)))
        records = control.flush()
        reader = TraceReader(registry=default_registry(), include_fillers=True)
        trace = reader.decode_records(records)
        for ev in trace.events(0):
            start = ev.offset
            span = len(ev.data) + 1 if not ev.is_filler else None
            if span is not None:
                assert start + span <= 32, f"event crosses boundary: {ev}"

    def test_buffers_complete_in_sequence(self):
        logger, control, _ = make_logger(buffer_words=32, num_buffers=4)
        for i in range(200):
            logger.log1(Major.TEST, 1, i)
        records = control.drain()
        seqs = [r.seq for r in records]
        assert seqs == sorted(seqs)
        assert seqs == list(range(len(seqs)))

    def test_every_completed_buffer_committed_fully(self):
        logger, control, _ = make_logger(buffer_words=32, num_buffers=4)
        for i in range(500):
            logger.log1(Major.TEST, 1, i)
        for rec in control.drain():
            assert rec.committed == rec.fill_words == 32

    def test_anchor_present_in_every_buffer(self):
        logger, control, _ = make_logger(buffer_words=32, num_buffers=4)
        for i in range(300):
            logger.log1(Major.TEST, 1, i)
        records = control.flush()
        reader = TraceReader(registry=default_registry())
        for rec in records:
            evs = reader.decode_one(rec).events(rec.cpu)
            anchors = [
                e for e in evs
                if e.major == Major.CONTROL and e.minor == ControlMinor.TIMESTAMP_ANCHOR
            ]
            assert anchors, f"buffer seq {rec.seq} lacks an anchor"

    def test_commit_counts_can_be_disabled(self):
        control = TraceControl(buffer_words=32, num_buffers=4)
        mask = TraceMask()
        mask.enable_all()
        logger = TraceLogger(control, mask, ManualClock(), commit_counts=False)
        logger.start()
        for i in range(100):
            logger.log1(Major.TEST, 1, i)
        for rec in control.drain():
            assert rec.committed == 0
        reader = TraceReader(check_committed=False)
        trace = reader.decode_records(control.flush())
        assert not trace.anomalies


class TestFlightRecorder:
    def test_ring_overwrites_and_snapshot_returns_recent(self):
        logger, control, clock = make_logger(
            buffer_words=32, num_buffers=4, mode="flight"
        )
        for i in range(1000):
            clock.advance(1)
            logger.log1(Major.TEST, 1, i)
        records = control.snapshot()
        assert 1 <= len(records) <= 4
        # Newest data present: the last logged value must be visible.
        reader = TraceReader(registry=default_registry())
        trace = reader.decode_records(records)
        values = [e.data[0] for e in trace.events(0) if e.major == Major.TEST]
        assert values[-1] == 999
        # Values are a contiguous recent suffix.
        assert values == list(range(values[0], 1000))

    def test_flight_mode_queues_nothing(self):
        logger, control, _ = make_logger(buffer_words=32, num_buffers=4, mode="flight")
        for i in range(500):
            logger.log1(Major.TEST, 1, i)
        assert control.drain() == []


class TestNullLogger:
    def test_null_logger_does_nothing(self):
        n = NullTraceLogger()
        assert n.log0(1, 1) is False
        assert n.log3(1, 1, 1, 2, 3) is False
        assert n.log_words(1, 1, [1, 2]) is False
        assert n.log_event("anything") is False
        n.start()


class TestStragglerGarble:
    """§3.1's hard failure mode, constructed deliberately: a writer is
    interrupted between reserve and log for so long that the ring wraps
    and its reservation's position is recycled by a newer buffer.  The
    write lands in the recycled buffer; the per-buffer committed count
    ("too much data") and/or the reader's validity checks must flag it.
    """

    def test_straggler_write_into_recycled_buffer_detected(self):
        from repro.core.constants import TIMESTAMP_MASK
        from repro.core.header import pack_header

        logger, control, clock = make_logger(buffer_words=32, num_buffers=4)
        clock.advance(100)
        # The straggler reserves... and is "preempted" before writing.
        idx, ts = logger._reserve(2)
        # Meanwhile the system logs enough to lap the whole ring.
        for i in range(300):
            clock.advance(10)
            logger.log1(Major.TEST, 1, i)
        # The straggler finally wakes and writes with its stale timestamp.
        pos = control.trace_at + (idx & control.index_mask)
        control.mem[pos] = pack_header(ts & TIMESTAMP_MASK, 2,
                                       Major.TEST, 1)
        control.mem[pos + 1] = 0xDEAD
        control.store.fetch_and_add(
            control.committed_at + control.slot_of(control.buffer_of(idx)), 2
        )
        trace = decode(control)
        assert trace.anomalies, (
            "a straggler lap-behind write must be detectable"
        )
        kinds = {a.kind for a in trace.anomalies}
        assert kinds & {"committed-mismatch", "garbled"}

    def test_hole_from_unfinished_reservation_detected(self):
        """A reservation never written at all leaves a zeroed hole (the
        buffer was zeroed ahead); readers flag it and recover at the
        boundary, and the committed count comes up short."""
        logger, control, clock = make_logger(buffer_words=32, num_buffers=4)
        logger._reserve(3)  # reserved, never written, never committed
        for i in range(40):
            clock.advance(5)
            logger.log1(Major.TEST, 1, i)
        trace = decode(control)
        kinds = {a.kind for a in trace.anomalies}
        assert "garbled" in kinds or "committed-mismatch" in kinds
        # Recovery: events after the hole's buffer still decode.
        later = [e for e in trace.events(0) if e.major == Major.TEST]
        assert later


class TestStats:
    def test_stats_track_events_and_words(self):
        logger, control, _ = make_logger()
        before = control.stats_events_logged
        logger.log2(Major.TEST, 2, 1, 2)
        assert control.stats_events_logged == before + 1
        assert control.stats_words_logged >= 3
