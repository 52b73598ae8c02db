"""Concurrent stress tests: real threads hammering the lockless logger.

These exercise the actual race the CAS protects against (Figure 1): many
writers reserving into one per-CPU buffer simultaneously.  In K42 that
situation arises from multiple threads on one CPU plus interrupt-level
logging; here threads stand in for the interleaving.
"""

import sys
import threading

import pytest

from repro.core.buffers import TraceControl
from repro.core.logger import TraceLogger
from repro.core.majors import Major
from repro.core.mask import TraceMask
from repro.core.registry import default_registry
from repro.core.stream import TraceReader
from repro.core.timestamps import WallClock


def run_threads(n_threads, per_thread, data_words=2, buffer_words=512,
                num_buffers=32, mode="writeout"):
    # NOTE: the default ring (512*32 words) exceeds the words these tests
    # log, so no position is ever recycled and the §3.1 straggler-garble
    # case (a writer descheduled across a full ring lap) cannot occur.
    # That case is exercised deliberately in
    # tests/core/test_logger.py::TestStragglerGarble.
    control = TraceControl(
        buffer_words=buffer_words, num_buffers=num_buffers, mode=mode,
    )
    mask = TraceMask()
    mask.enable_all()
    clock = WallClock()
    logger = TraceLogger(control, mask, clock, registry=default_registry())
    logger.start()
    barrier = threading.Barrier(n_threads)

    def work(tid):
        barrier.wait()
        for i in range(per_thread):
            logger.log_words(Major.TEST, 1, [tid] + [i] * (data_words - 1))

    threads = [threading.Thread(target=work, args=(t,)) for t in range(n_threads)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    return logger, control


class TestConcurrentLogging:
    def test_no_events_lost(self):
        n_threads, per_thread = 8, 400
        logger, control = run_threads(n_threads, per_thread)
        reader = TraceReader(registry=default_registry())
        trace = reader.decode_records(control.flush())
        test_events = [e for e in trace.events(0) if e.major == Major.TEST]
        assert len(test_events) == n_threads * per_thread
        garbled = [a for a in trace.anomalies if a.kind == "garbled"]
        assert garbled == []

    def test_per_thread_event_counts_exact(self):
        n_threads, per_thread = 6, 300
        logger, control = run_threads(n_threads, per_thread)
        reader = TraceReader(registry=default_registry())
        trace = reader.decode_records(control.flush())
        counts = {}
        for e in trace.events(0):
            if e.major == Major.TEST:
                counts[e.data[0]] = counts.get(e.data[0], 0) + 1
        assert counts == {tid: per_thread for tid in range(n_threads)}

    def test_timestamps_monotonic_under_contention(self):
        """§3.1's guarantee: re-reading the timestamp inside the CAS retry
        loop keeps the per-CPU stream monotonic even under racing."""
        logger, control = run_threads(8, 300)
        reader = TraceReader(registry=default_registry(), include_fillers=True)
        trace = reader.decode_records(control.flush())
        times = [e.time for e in trace.events(0)]
        assert all(a <= b for a, b in zip(times, times[1:]))

    def test_committed_counts_match_buffers(self):
        logger, control = run_threads(8, 500)
        reader = TraceReader(registry=default_registry())
        trace = reader.decode_records(control.flush())
        mismatches = [a for a in trace.anomalies if a.kind == "committed-mismatch"]
        assert mismatches == []

    def test_variable_lengths_under_contention(self):
        control = TraceControl(buffer_words=128, num_buffers=64)
        mask = TraceMask()
        mask.enable_all()
        logger = TraceLogger(control, mask, WallClock(), registry=default_registry())
        logger.start()
        n_threads = 6
        barrier = threading.Barrier(n_threads)

        def work(tid):
            barrier.wait()
            for i in range(200):
                n = (tid + i) % 5
                logger.log_words(Major.TEST, 1, [tid] * (n + 1))

        threads = [threading.Thread(target=work, args=(t,)) for t in range(n_threads)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        reader = TraceReader(registry=default_registry())
        trace = reader.decode_records(control.flush())
        evs = [e for e in trace.events(0) if e.major == Major.TEST]
        assert len(evs) == n_threads * 200
        assert not [a for a in trace.anomalies if a.kind == "garbled"]

    def test_cas_retries_happen_under_contention(self):
        """With 8 threads racing one index, some CAS attempts must fail —
        otherwise the test isn't exercising the lockless path at all.
        A tiny GIL switch interval forces real interleaving."""
        old = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            retries = 0
            for _ in range(5):  # probabilistic: allow a few attempts
                logger, control = run_threads(8, 800)
                retries += control.stats_cas_retries
                if retries:
                    break
            assert retries > 0
        finally:
            sys.setswitchinterval(old)

    def test_flight_recorder_under_contention(self):
        # The ring wraps many times here, so a straggler *may* garble a
        # recycled buffer (§3.1) — the requirement is that the snapshot
        # still decodes and contains the most recent events.
        logger, control = run_threads(
            4, 500, buffer_words=128, num_buffers=4, mode="flight"
        )
        reader = TraceReader(registry=default_registry())
        trace = reader.decode_records(control.snapshot())
        evs = [e for e in trace.events(0) if e.major == Major.TEST]
        assert len(evs) > 0


class TestConcurrentLoggingForcedSwitch:
    """The exactness tests again with a 1 us GIL switch interval.

    Loads of the index and committed words are plain indexing of the
    lane's word view and take no lock, so a thread can be switched out
    between the load and the compare-and-store that consumes it; these
    runs force that window open often and rely on the CAS to reject
    every stale read.
    """

    @pytest.fixture(autouse=True)
    def _tiny_switch_interval(self):
        old = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        yield
        sys.setswitchinterval(old)

    test_no_events_lost = TestConcurrentLogging.test_no_events_lost
    test_per_thread_event_counts_exact = \
        TestConcurrentLogging.test_per_thread_event_counts_exact
    test_timestamps_monotonic_under_contention = \
        TestConcurrentLogging.test_timestamps_monotonic_under_contention
    test_committed_counts_match_buffers = \
        TestConcurrentLogging.test_committed_counts_match_buffers

    def test_bookers_share_one_cursor(self):
        """Bookers on eight threads move one write-out collector's cursor
        past a 4-buffer ring's slack hundreds of times: every buffer is
        copied out once or counted dropped, never both, never twice.
        (Without the copy lock, about two runs in three break this.)"""
        for _ in range(3):
            _, control = run_threads(8, 1000, buffer_words=32,
                                     num_buffers=4)
            seqs = [rec.seq for rec in control.flush()]
            assert len(seqs) == len(set(seqs))
            cur_seq, fill = divmod(control.index(), control.buffer_words)
            assert len(seqs) + control.collector.stats.dropped == \
                cur_seq + (fill > 0)


class TestMultiCpuConcurrent:
    def test_per_cpu_buffers_are_independent(self):
        """One thread per CPU logging into its own control: zero CAS
        retries — the scalability property per-processor buffers buy."""
        ncpus = 4
        controls = [TraceControl(cpu=c, buffer_words=256, num_buffers=8)
                    for c in range(ncpus)]
        mask = TraceMask()
        mask.enable_all()
        clock = WallClock()
        loggers = [TraceLogger(c, mask, clock, registry=default_registry())
                   for c in controls]
        for lg in loggers:
            lg.start()
        barrier = threading.Barrier(ncpus)

        def work(cpu):
            barrier.wait()
            for i in range(1000):
                loggers[cpu].log1(Major.TEST, 1, i)

        threads = [threading.Thread(target=work, args=(c,)) for c in range(ncpus)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        for c in controls:
            assert c.stats_cas_retries == 0
        records = []
        for c in controls:
            records.extend(c.flush())
        reader = TraceReader(registry=default_registry())
        trace = reader.decode_records(records)
        assert trace.ncpus == ncpus
        for cpu in range(ncpus):
            evs = [e for e in trace.events(cpu) if e.major == Major.TEST]
            assert len(evs) == 1000

    def test_merged_stream_ordered_across_cpus(self):
        ncpus = 3
        controls = [TraceControl(cpu=c, buffer_words=256, num_buffers=8)
                    for c in range(ncpus)]
        mask = TraceMask()
        mask.enable_all()
        clock = WallClock()
        loggers = [TraceLogger(c, mask, clock, registry=default_registry())
                   for c in controls]
        for lg in loggers:
            lg.start()

        def work(cpu):
            for i in range(500):
                loggers[cpu].log1(Major.TEST, 1, i)

        threads = [threading.Thread(target=work, args=(c,)) for c in range(ncpus)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        records = []
        for c in controls:
            records.extend(c.flush())
        trace = TraceReader(registry=default_registry()).decode_records(records)
        merged = trace.all_events()
        times = [e.time for e in merged]
        assert all(a <= b for a, b in zip(times, times[1:]))
