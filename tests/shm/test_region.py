"""Segment lifecycle, layout geometry, and in-process protocol runs.

Everything here happens in one process — the cross-process legs live in
``test_multiproc.py`` — but always through the real segment: create,
attach by name, log through the unchanged protocol, drain, decode.
"""

import multiprocessing

import pytest

from repro.core import lane
from repro.core.facility import TraceFacility
from repro.core.lane import UnsupportedByteOrder
from repro.core.majors import Major
from repro.core.stream import TraceReader
from repro.shm import ShmCollector, ShmLayout, ShmTraceRegion
from repro.shm.region import (
    HEADER_WORDS,
    SEGMENT_MAGIC,
    ShmFormatError,
)


@pytest.fixture
def region():
    reg = ShmTraceRegion.create(ncpus=2, buffer_words=64, num_buffers=4)
    try:
        yield reg
    finally:
        reg.close()
        reg.unlink()


class TestLayout:
    def test_geometry_is_disjoint_and_ordered(self):
        lay = ShmLayout(ncpus=3, buffer_words=64, num_buffers=4)
        assert lay.total_words_per_cpu == 256
        spans = []
        for cpu in range(3):
            base = lay.cpu_base(cpu)
            assert lay.index_word(cpu) == base
            assert lay.booked_word(cpu) == base + 1
            assert lay.committed_words(cpu) == base + 4
            assert lay.slot_seq_words(cpu) == base + 8
            assert lay.trace_words(cpu) == base + 12
            spans.append((base, base + lay.cpu_words))
        assert spans[0][0] == HEADER_WORDS
        for (_, end), (start, _) in zip(spans, spans[1:]):
            assert end == start  # contiguous, no overlap
        assert lay.segment_words == spans[-1][1]
        assert lay.segment_bytes == 8 * lay.segment_words

    def test_cpu_out_of_range(self):
        lay = ShmLayout(ncpus=1, buffer_words=8, num_buffers=2)
        with pytest.raises(ValueError):
            lay.cpu_base(1)


class TestLifecycle:
    def test_create_stamps_header_and_anchors(self, region):
        assert region.owner
        attached = ShmTraceRegion.attach(region.name)
        try:
            assert attached.layout == region.layout
            assert attached.clock_origin_ns == region.clock_origin_ns
            assert not attached.owner
            # the creator's start() anchored buffer 0 of every CPU
            for cpu in range(2):
                assert attached.index_word(cpu).peek() > 0
        finally:
            attached.close()

    def test_attach_rejects_foreign_segment(self):
        from multiprocessing import shared_memory
        shm = shared_memory.SharedMemory(create=True, size=1024)
        try:
            with pytest.raises(ShmFormatError):
                ShmTraceRegion.attach(shm.name)
        finally:
            shm.close()
            shm.unlink()

    def test_attach_rejects_unknown_version(self, region):
        from repro.shm.region import _H_VERSION
        region._poke_header(_H_VERSION, 999)
        try:
            with pytest.raises(ShmFormatError):
                ShmTraceRegion.attach(region.name)
        finally:
            region._poke_header(_H_VERSION, 1)

    def test_done_flag(self, region):
        assert not region.is_done()
        region.set_done()
        assert region.is_done()
        region.set_done()  # idempotent
        assert region.is_done()
        assert region._peek_header(0) == SEGMENT_MAGIC  # header intact

    def test_close_is_idempotent(self):
        reg = ShmTraceRegion.create(ncpus=1, buffer_words=8, num_buffers=2)
        reg.close()
        reg.close()
        reg.unlink()
        reg.unlink()

    def test_context_manager_owner_unlinks(self):
        with ShmTraceRegion.create(ncpus=1, buffer_words=8,
                                   num_buffers=2) as reg:
            name = reg.name
        with pytest.raises(FileNotFoundError):
            ShmTraceRegion.attach(name)

    def test_cleanup_by_name(self):
        reg = ShmTraceRegion.create(ncpus=1, buffer_words=8, num_buffers=2)
        name = reg.name
        reg.close()  # detach without unlink: simulated dead owner
        assert ShmTraceRegion.cleanup(name) is True
        assert ShmTraceRegion.cleanup(name) is False


class TestProtocolOverShm:
    def test_log_and_drain_round_trip(self):
        """Two attaches log interleaved; the collector's file decodes
        complete with the shared clock ordering each CPU's stream.
        Geometry is wrap-free (512 words per CPU for ~300 logged)."""
        region = ShmTraceRegion.create(ncpus=2, buffer_words=64,
                                       num_buffers=8)
        a = ShmTraceRegion.attach(region.name)
        b = ShmTraceRegion.attach(region.name)
        try:
            la = a.logger(0)
            lb = b.logger(1)
            for i in range(100):
                la.log_words(Major.TEST, 1, [i, i * 3])
                lb.log_words(Major.TEST, 2, [i, i * 5])
            region.set_done()
            collector = ShmCollector(region)
            records = collector.poll(lag=0) + collector.finalize()
            trace = TraceReader(check_committed=True).decode_records(records)
            assert [a2.kind for a2 in trace.anomalies
                    if a2.kind != "missing-anchor"] == []
            for cpu, minor, mult in ((0, 1, 3), (1, 2, 5)):
                evs = [e for e in trace.events(cpu) if e.major == Major.TEST]
                assert [list(e.data) for e in evs] == \
                    [[i, i * mult] for i in range(100)]
                times = [e.time for e in evs if e.time is not None]
                assert times == sorted(times)
        finally:
            a.close()
            b.close()
            region.close()
            region.unlink()

    def test_collector_held_counts_distinct_buffers(self):
        """``stats.held`` counts deferred *buffers*, not deferring
        *polls*: a writer stalled mid-buffer that the collector
        re-observes over N polls is one deferred emission, so the stat
        stays comparable across poll rates.  (Pre-fix it incremented
        once per poll.)"""
        reg = ShmTraceRegion.create(ncpus=1, buffer_words=16, num_buffers=4)
        try:
            # Simulate a writer preempted mid-copy: the reservation
            # index has moved past buffer 0, but not one of its words
            # was ever committed.
            reg.index_word(0).store(32)  # two buffers' worth reserved
            collector = ShmCollector(reg)
            for _ in range(5):
                assert collector.poll(lag=0) == []
            assert collector.stats.held == 1
            # finalize force-emits past the gate; held stays settled.
            records = collector.finalize()
            assert {r.seq for r in records} == {0, 1}
            assert collector.stats.held == 1
        finally:
            reg.close()
            reg.unlink()

    def test_collector_reports_lap_drops(self):
        """A collector that never polls while the ring wraps must count
        the overwritten buffers as dropped, not emit stale data."""
        reg = ShmTraceRegion.create(ncpus=1, buffer_words=16, num_buffers=2)
        try:
            collector = ShmCollector(reg)  # cursor at 0, then starved
            logger = reg.logger(0)
            for i in range(200):
                logger.log_words(Major.TEST, 1, [i])
            reg.set_done()
            records = collector.poll(lag=0) + collector.finalize()
            assert collector.stats.dropped > 0
            seqs = sorted(r.seq for r in records)
            cur = reg.index_word(0).peek() // 16
            assert all(s >= cur - 1 for s in seqs)  # only live buffers
        finally:
            reg.close()
            reg.unlink()

    def test_late_attach_gets_fresh_anchor(self):
        """A writer attaching > 2^31 ns after creation must not read as
        a timestamp regression: ``logger()`` logs a fresh full-width
        anchor, and the readers re-base at it.  (This is the spawn
        start-method flake: child startup can take seconds.)"""
        from repro.core.timestamps import ManualClock

        region = ShmTraceRegion.create(ncpus=1, buffer_words=64,
                                       num_buffers=8)
        late = ShmTraceRegion.attach(region.name)
        try:
            # Simulate a slow-starting writer: its clock reads ~3 s
            # past the creator's buffer-0 anchor.
            gap = 3_000_000_000
            logger = late.logger(0, clock=ManualClock(start=gap))
            for i in range(10):
                logger.log_words(Major.TEST, 1, [i])
            region.set_done()
            records = ShmCollector(region).finalize()
            trace = TraceReader(check_committed=True).decode_records(records)
            assert [a.kind for a in trace.anomalies
                    if a.kind != "missing-anchor"] == []
            evs = [e for e in trace.events(0) if e.major == Major.TEST]
            assert [list(e.data) for e in evs] == [[i] for i in range(10)]
            assert all(e.time is not None and e.time >= gap for e in evs)
        finally:
            late.close()
            region.close()
            region.unlink()

    def test_control_validates_store_geometry(self, region):
        """A lane that would run past the end of its store is refused."""
        from repro.core.buffers import TraceControl
        from repro.core.lane import LaneStore, lane_words
        need = lane_words(64, 4)
        with pytest.raises(ValueError):
            TraceControl(cpu=0, buffer_words=64, num_buffers=4,
                         store=LaneStore.private(need - 1))
        with pytest.raises(ValueError):
            region.control(0, store=LaneStore.private(need))  # base > 0
        TraceControl(cpu=0, buffer_words=64, num_buffers=4,
                     store=LaneStore.private(need))


def _log_after_close_main(attached, logger, out):
    """In a forked child: close the inherited attach, then log."""
    try:
        attached.close()
    except Exception as exc:  # pragma: no cover - reported to the parent
        out.put(("close", repr(exc)))
        return
    try:
        logger.log1(Major.TEST, 1, 0)
    except ValueError as exc:
        out.put(("ValueError", str(exc)))
    except Exception as exc:  # pragma: no cover - reported to the parent
        out.put((type(exc).__name__, str(exc)))
    else:  # pragma: no cover - reported to the parent
        out.put(("logged", ""))


class TestCloseReleasesViews:
    """Every store, word and logger of an attach indexes one cast view of
    the segment; ``close`` releases it, so the segment unmaps cleanly
    and a logger that outlives its attach fails with ``ValueError``."""

    def test_close_with_a_bound_logger(self, region):
        attached = ShmTraceRegion.attach(region.name)
        logger = attached.logger(0)
        word = attached.index_word(0)
        assert logger.log1(Major.TEST, 1, 0)
        attached.close()  # no BufferError: nothing still exports the map
        with pytest.raises(ValueError, match="released memoryview"):
            logger.log1(Major.TEST, 1, 1)
        with pytest.raises(ValueError, match="released memoryview"):
            word.load()
        region.close()  # the creator's view goes the same way

    @pytest.mark.skipif(
        "fork" not in multiprocessing.get_all_start_methods(),
        reason="needs fork")
    def test_close_with_an_inherited_logger_under_fork(self, region):
        ctx = multiprocessing.get_context("fork")
        attached = ShmTraceRegion.attach(region.name)
        try:
            logger = attached.logger(0)
            out = ctx.Queue()
            p = ctx.Process(target=_log_after_close_main,
                            args=(attached, logger, out))
            p.start()
            kind, detail = out.get(timeout=30)
            p.join(30)
            assert p.exitcode == 0
            assert kind == "ValueError", detail
            assert "released memoryview" in detail
            assert logger.log1(Major.TEST, 1, 0)  # the parent's is intact
        finally:
            attached.close()


class TestByteOrder:
    """Lane words are little-endian on disk and in the segment; a cast
    view is native, so a big-endian host is refused, never byte-swapped."""

    @pytest.fixture
    def big_endian(self, monkeypatch):
        monkeypatch.setattr(lane, "host_byteorder", lambda: "big")

    def test_create_refuses_before_making_a_segment(self, big_endian):
        from tests.shm.test_multiproc import shm_segments
        before = shm_segments()
        with pytest.raises(UnsupportedByteOrder, match="'big'"):
            ShmTraceRegion.create(ncpus=1, buffer_words=8, num_buffers=2)
        assert shm_segments() == before

    def test_attach_refuses(self, region, big_endian):
        with pytest.raises(UnsupportedByteOrder, match="sys.byteorder"):
            ShmTraceRegion.attach(region.name)

    def test_private_lane_refuses(self, big_endian):
        with pytest.raises(UnsupportedByteOrder):
            TraceFacility(ncpus=1)
