"""Stream decoding: garble detection/recovery, random access, merging."""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.check import oracle
from repro.core.buffers import BufferRecord, TraceControl
from repro.core.faults import FaultInjector
from repro.core.header import pack_header
from repro.core.logger import TraceLogger
from repro.core.majors import ControlMinor, Major
from repro.core.mask import TraceMask
from repro.core.registry import default_registry
from repro.core.stream import (
    BufferColumns,
    TraceReader,
    decode_from_offset,
    find_resync,
    flat_records,
    scan_buffer,
    sdelta32,
    seek_boundary,
)
from repro.core.timestamps import ManualClock


def scalar_fields(cols):
    """The oracle's word-at-a-time view of a buffer's header fields."""
    def fields(o):
        return (int(cols.ts32[o]), int(cols.length[o]),
                int(cols.major[o]), int(cols.minor[o]))
    return fields


def _both_resyncs(cols):
    """The array-predicate resync and the oracle's scalar one, each with
    the first argument it takes."""
    return ((find_resync, cols), (oracle.find_resync, scalar_fields(cols)))


def build_trace(n_events=300, buffer_words=32, data_words=1, tick=5):
    control = TraceControl(buffer_words=buffer_words, num_buffers=8)
    mask = TraceMask()
    mask.enable_all()
    clock = ManualClock()
    logger = TraceLogger(control, mask, clock, registry=default_registry())
    logger.start()
    for i in range(n_events):
        clock.advance(tick)
        logger.log_words(Major.TEST, 1, [i] * data_words)
    return control


class TestSdelta32:
    def test_zero(self):
        assert sdelta32(5, 5) == 0

    def test_forward(self):
        assert sdelta32(10, 3) == 7

    def test_backward(self):
        assert sdelta32(3, 10) == -7

    def test_wrap_forward(self):
        assert sdelta32(5, (1 << 32) - 5) == 10

    def test_wrap_backward(self):
        assert sdelta32((1 << 32) - 5, 5) == -10

    def test_extremes(self):
        assert sdelta32((1 << 31) - 1, 0) == (1 << 31) - 1
        assert sdelta32(1 << 31, 0) == -(1 << 31)


class TestGarbleDetection:
    def _records(self):
        control = build_trace()
        return control.flush()

    def test_clean_trace_no_anomalies(self):
        reader = TraceReader(registry=default_registry())
        trace = reader.decode_records(self._records())
        assert trace.anomalies == []

    def test_zeroed_header_detected_and_recovered(self):
        """A writer killed between reserve and log leaves a zero header
        (the buffer was zeroed ahead); the reader flags it and skips to
        the next alignment boundary — §3.1's recovery story."""
        records = self._records()
        victim = records[1]
        reader = TraceReader(registry=default_registry())
        # Zero a genuine event *header* (not a data word) mid-buffer.
        probe = reader.decode_one(victim).events(victim.cpu)
        target = next(e.offset for e in probe if e.offset > 0)
        victim.words[target] = 0  # simulate the unwritten hole
        trace = reader.decode_records(records)
        garbled = [a for a in trace.anomalies if a.kind == "garbled"]
        assert len(garbled) == 1
        assert garbled[0].seq == victim.seq
        # Later buffers decode fine: recovery happened at the boundary.
        later = [e for e in trace.events(0) if e.seq > victim.seq]
        assert later

    def test_length_overrunning_buffer_detected(self):
        records = self._records()
        victim = records[0]
        # Header claiming 900 words in a 32-word buffer.
        victim.words[4] = pack_header(100, 900, Major.TEST, 1)
        trace = TraceReader(registry=default_registry()).decode_records(records)
        assert any(a.kind == "garbled" for a in trace.anomalies)

    def test_timestamp_regression_detected(self):
        records = self._records()
        victim = records[2]
        # Rewrite an event header with a far-backwards timestamp.
        victim.words[10] = pack_header(3, 2, Major.TEST, 1)
        trace = TraceReader(registry=default_registry()).decode_records(records)
        garbled = [a for a in trace.anomalies if a.kind == "garbled"]
        assert any("regression" in a.detail for a in garbled)

    def test_committed_mismatch_detected(self):
        records = self._records()
        records[1].committed -= 3  # a killed writer never committed
        trace = TraceReader(registry=default_registry()).decode_records(records)
        assert any(a.kind == "committed-mismatch" for a in trace.anomalies)

    def test_truncated_extended_filler_detected(self):
        bw = 4096
        words = np.zeros(bw, dtype=np.uint64)
        words[0] = pack_header(1, 0, Major.CONTROL, ControlMinor.FILLER_EXT)
        words[1] = 10**9  # absurd span
        rec = BufferRecord(cpu=0, seq=0, words=words, committed=bw, fill_words=bw)
        trace = TraceReader().decode_records([rec])
        assert any("filler span" in a.detail for a in trace.anomalies)


class TestRecovery:
    """In-buffer resynchronization after a garble (the tentpole)."""

    def _records(self):
        return build_trace(n_events=300, data_words=2).flush()

    def test_salvages_events_after_mid_buffer_garble(self):
        records = self._records()
        victim = max(records, key=lambda r: r.fill_words)
        offsets = scan_buffer(victim.words, victim.fill_words).offsets
        mid = offsets[len(offsets) // 2]
        victim.words[mid] = 0

        reg = default_registry()
        loose = TraceReader(registry=reg).decode_records(records)
        strict = TraceReader(registry=reg, strict=True).decode_records(records)
        n_loose = sum(len(v) for v in loose.events_by_cpu.values())
        n_strict = sum(len(v) for v in strict.events_by_cpu.values())
        assert n_loose > n_strict
        kinds = [a.kind for a in loose.anomalies]
        assert kinds.count("garbled") == 1
        assert kinds.count("recovered-region") == 1
        # The salvage report names where scanning resumed.
        rr = next(a for a in loose.anomalies if a.kind == "recovered-region")
        assert rr.seq == victim.seq and "resynchronized" in rr.detail

    def test_strict_mode_emits_no_recovered_region(self):
        records = self._records()
        victim = max(records, key=lambda r: r.fill_words)
        offsets = scan_buffer(victim.words, victim.fill_words).offsets
        victim.words[offsets[len(offsets) // 2]] = 0
        trace = TraceReader(registry=default_registry(),
                            strict=True).decode_records(records)
        kinds = [a.kind for a in trace.anomalies]
        assert "garbled" in kinds
        assert "recovered-region" not in kinds

    def test_find_resync_locates_next_real_header(self):
        records = self._records()
        victim = max(records, key=lambda r: r.fill_words)
        words = victim.words
        scan = scan_buffer(words, victim.fill_words)
        offsets = scan.offsets
        mid_i = len(offsets) // 2
        words[offsets[mid_i]] = 0

        fresh = scan_buffer(words, victim.fill_words)
        prev_ts32 = int(fresh.cols.ts32[offsets[mid_i - 1]])
        for resync, arg in _both_resyncs(fresh.cols):
            resume = resync(arg, offsets[mid_i] + 1, victim.fill_words,
                            prev_ts32)
            assert resume == offsets[mid_i + 1]

    def test_find_resync_gives_up_on_pure_garbage(self):
        rng = np.random.default_rng(1)
        words = rng.integers(1, 1 << 63, size=64, dtype=np.uint64)
        # Make every word an implausible header: length 0 forces that.
        words &= ~np.uint64(0x3FF << 22)
        scan = scan_buffer(words, 64)
        for resync, arg in _both_resyncs(scan.cols):
            assert resync(arg, 0, 64, None) is None

    def test_multiple_garbles_in_one_buffer(self):
        records = self._records()
        victim = max(records, key=lambda r: r.fill_words)
        offsets = scan_buffer(victim.words, victim.fill_words).offsets
        assert len(offsets) >= 8
        victim.words[offsets[2]] = 0
        victim.words[offsets[5]] = 0
        trace = TraceReader(registry=default_registry()).decode_records(records)
        kinds = [a.kind for a in trace.anomalies]
        assert kinds.count("garbled") == 2
        assert kinds.count("recovered-region") == 2

    def test_decode_from_offset_strict_flag(self):
        records = [r for r in self._records() if not r.partial]
        victim = max(records, key=lambda r: r.fill_words)
        offsets = scan_buffer(victim.words, victim.fill_words).offsets
        victim.words[offsets[len(offsets) // 2]] = 0
        flat = np.concatenate([r.words for r in records])
        bw = len(records[0].words)
        reg = default_registry()
        loose = decode_from_offset(flat, bw, 0, registry=reg)
        strict = decode_from_offset(flat, bw, 0, registry=reg, strict=True)
        assert len(loose.events(0)) > len(strict.events(0))
        assert any(a.kind == "recovered-region" for a in loose.anomalies)


def assert_resyncs_agree(words, prevs):
    """Hold the array-predicate resync to the oracle's scalar one for
    every ``(start, limit, prev_ts32)`` over ``words``, both one past
    the ends included."""
    cols = BufferColumns(np.array(words, dtype=np.uint64), len(words))
    fields = scalar_fields(cols)
    for limit in range(len(words) + 1):
        for start in range(limit + 2):
            for prev in prevs:
                assert find_resync(cols, start, limit, prev) == \
                    oracle.find_resync(fields, start, limit, prev), \
                    (start, limit, prev, [hex(w) for w in words])


_NEAR = (0, 1 << 31, (1 << 32) - 1)  # timestamps around each wrap point
_ts32s = st.one_of(*(st.integers(max(0, t - 8), min((1 << 32) - 1, t + 8))
                     for t in _NEAR))
_headers = st.builds(
    pack_header,
    _ts32s,
    st.one_of(st.integers(0, 6), st.sampled_from([1022, 1023])),
    st.sampled_from([Major.CONTROL, Major.TEST, 63]),
    # Every known control minor, unknown ones, and the field's maximum.
    st.sampled_from([*ControlMinor, 5, 9, 0xFFFF]),
)
_words = st.lists(
    st.one_of(_headers, st.just(0), st.integers(0, (1 << 64) - 1)),
    max_size=20)


class TestVectorResync:
    """``find_resync`` decides by array predicates; the word-at-a-time
    ``oracle.find_resync`` is what it has to agree with."""

    @given(_words, st.lists(_ts32s, max_size=3))
    @settings(max_examples=150, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    def test_matches_scalar_on_random_words(self, words, prevs):
        assert_resyncs_agree(words, [None, *prevs])

    # The record faults that damage words (a killed writer only lowers
    # the committed count).
    @pytest.mark.parametrize("kind", ["header-bitflip", "torn-event"])
    @given(seed=st.integers(0, 10_000))
    @settings(max_examples=15, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    def test_matches_scalar_on_injected_faults(self, kind, seed):
        clean = build_trace(n_events=40, buffer_words=32).flush()
        records, _report = FaultInjector(seed).inject_records(clean, kind)
        for rec, was in zip(records, clean):
            if np.array_equal(rec.words, was.words):
                continue
            words = rec.words[:rec.fill_words].tolist()
            stamps = [w >> 32 for w in words[:3]]
            assert_resyncs_agree(words, [None, *stamps])

    def test_rules_case_by_case(self):
        def hdr(ts, length, major=Major.TEST, minor=1):
            return pack_header(ts, length, major, minor)

        anchor = pack_header(5, 2, Major.CONTROL,
                             ControlMinor.TIMESTAMP_ANCHOR)
        cases = {
            # The candidate at 1 chains to a plausible header at 3.
            "chains": ([0, hdr(50, 2), 7, hdr(60, 1)], 0, 4, 40, 1),
            # ... and one that ends the buffer exactly needs no successor.
            "exact end": ([0, 0, hdr(50, 2), 7], 0, 4, 40, 2),
            # Every header regresses against 1000: only the relaxed,
            # shape-only second pass accepts the chain at 1.
            "relaxed pass": ([0, hdr(50, 2), 7, hdr(60, 1)], 0, 4, 1000, 1),
            # A regressing timestamp is forgiven on a full-width anchor,
            # in the first pass: the earlier TEST header at 0 regresses.
            "anchor exempt": ([hdr(6, 1), anchor, 99, hdr(7, 1)],
                              0, 4, 1000, 1),
            # ... and on an anchor in the successor's place, which only
            # ever regresses against the candidate itself ...
            "successor anchor": ([hdr(8, 1), anchor, 99], 0, 3, None, 0),
            # ... but not on a successor that is no anchor.
            "successor regresses": ([hdr(50, 1), hdr(40, 1)], 0, 2, None, 1),
            # CONTROL with a minor nobody defines is junk, chain or not.
            "unknown control minor": (
                [hdr(50, 1, Major.CONTROL, 77), hdr(60, 1)], 0, 2, None, 1),
            "start at limit": ([hdr(50, 1)], 1, 1, None, None),
            "start past limit": ([hdr(50, 1)], 2, 1, None, None),
            "all-zero tail": ([hdr(50, 1)] + [0] * 30, 1, 31, 50, None),
            # A zero length never resynchronizes, extended filler or not.
            "extended filler": ([pack_header(
                50, 0, Major.CONTROL, ControlMinor.FILLER_EXT), 2],
                0, 2, None, None),
        }
        for name, (words, start, limit, prev, expect) in cases.items():
            cols = BufferColumns(np.array(words, dtype=np.uint64), len(words))
            for resync, arg in _both_resyncs(cols):
                assert resync(arg, start, limit, prev) == expect, name


class TestRandomAccess:
    def test_decode_single_buffer_independently(self):
        """Random access: any buffer decodes alone, with absolute times,
        thanks to its embedded anchor."""
        control = build_trace(n_events=500)
        records = control.flush()
        mid = records[len(records) // 2]
        reader = TraceReader(registry=default_registry())
        solo = reader.decode_one(mid)
        evs = [e for e in solo.events(0) if e.major == Major.TEST]
        assert evs
        assert all(e.time is not None for e in evs)
        # Times agree with a full sequential decode.
        full = reader.decode_records(records)
        full_times = {
            (e.seq, e.offset): e.time for e in full.events(0)
        }
        for e in evs:
            assert full_times[(e.seq, e.offset)] == e.time

    def test_flat_array_seek_matches_sequential(self):
        """§3.2 end-to-end: concatenate raw buffers, seek to an arbitrary
        offset, snap to the boundary, and get identical events."""
        control = build_trace(n_events=400, buffer_words=32)
        records = [r for r in control.flush() if not r.partial]
        flat = np.concatenate([r.words for r in records])
        bw = 32
        reader = TraceReader(registry=default_registry(), check_committed=False)
        seq_trace = reader.decode_records(flat_records(flat, bw))
        arbitrary_offset = 3 * bw + 17
        sub = decode_from_offset(flat, bw, arbitrary_offset,
                                 registry=default_registry())
        start_buf = arbitrary_offset // bw
        expect = [e for e in seq_trace.events(0) if e.seq >= start_buf]
        got = sub.events(0)
        assert [(e.major, e.minor, e.data) for e in got] == [
            (e.major, e.minor, e.data) for e in expect
        ]

    def test_seek_boundary(self):
        assert seek_boundary(0, 32) == 0
        assert seek_boundary(31, 32) == 0
        assert seek_boundary(32, 32) == 32
        assert seek_boundary(100, 32) == 96

    def test_seek_boundary_rejects_nonsense(self):
        """A negative offset or non-positive geometry names no boundary;
        floor division used to 'snap' them somewhere silently."""
        with pytest.raises(ValueError):
            seek_boundary(-1, 32)
        with pytest.raises(ValueError):
            seek_boundary(0, 0)
        with pytest.raises(ValueError):
            seek_boundary(17, -32)

    def test_decode_from_offset_rejects_out_of_range(self):
        """Pre-fix, a negative offset sliced from the array's *tail* and
        a past-EOF offset decoded an empty trace with an overshot start
        sequence — both silently wrong."""
        control = build_trace(n_events=100, buffer_words=32)
        records = [r for r in control.flush() if not r.partial]
        flat = np.concatenate([r.words for r in records])
        reg = default_registry()
        with pytest.raises(ValueError):
            decode_from_offset(flat, 32, -1, registry=reg)
        with pytest.raises(ValueError):
            decode_from_offset(flat, 32, len(flat), registry=reg)
        with pytest.raises(ValueError):
            decode_from_offset(flat, 32, len(flat) + 999, registry=reg)

    def test_decode_from_offset_empty_trace_offset_zero(self):
        """Offset 0 into an empty word pool stays legal: an empty trace
        decodes to no events, not an error."""
        empty = decode_from_offset(
            np.zeros(0, dtype=np.uint64), 32, 0, registry=default_registry()
        )
        assert sum(len(v) for v in empty.events_by_cpu.values()) == 0


class TestTraceContainer:
    def test_filter_by_name_and_major(self):
        control = build_trace(n_events=50)
        trace = TraceReader(registry=default_registry()).decode_records(
            control.flush()
        )
        assert len(trace.filter(name="TRC_TEST_EVENT1")) == 50
        assert len(trace.filter(major=Major.TEST)) == 50
        assert trace.filter(major=Major.MEM) == []

    def test_control_events_excluded_by_default(self):
        control = build_trace(n_events=50)
        trace = TraceReader(registry=default_registry()).decode_records(
            control.flush()
        )
        assert all(not e.is_control for e in trace.filter())
        with_control = trace.filter(include_control=True)
        assert any(e.is_control for e in with_control)

    def test_fillers_included_when_requested(self):
        control = build_trace(n_events=300, data_words=2)
        reader = TraceReader(registry=default_registry(), include_fillers=True)
        trace = reader.decode_records(control.flush())
        assert any(e.is_filler for e in trace.events(0))

    def test_unknown_event_renders_hex(self):
        control = TraceControl(buffer_words=32, num_buffers=4)
        mask = TraceMask()
        mask.enable_all()
        logger = TraceLogger(control, mask, ManualClock())
        logger.start()
        logger.log1(40, 9, 0xFEED)  # unregistered major
        trace = TraceReader(registry=default_registry()).decode_records(
            control.flush()
        )
        ev = [e for e in trace.events(0) if e.major == 40][0]
        assert ev.name == "TRC_UNKNOWN_40_9"
        assert "0xfeed" in ev.render()
