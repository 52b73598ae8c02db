"""Every reader path, and the whole fault matrix, over *drained* traces.

The collector's output claims to be an ordinary trace: records that any
of the readers — the reference oracle, the decoder, the decoder on a
worker pool — decode bit-identically, and that survive the same damage matrix the
in-process traces survive.  This file holds that claim to the same
standard ``tests/core/test_faults.py`` applies to facility-produced
records: injected corruption surfaces as typed anomalies or file
issues, never as an exception, and never splits the reader paths.
"""

import io
import os

import pytest

from repro.core.faults import FILE_KINDS, RECORD_KINDS, FaultInjector
from repro.core.majors import Major
from repro.core.stream import TraceReader
from repro.core.writer import TraceFileReader, TraceFileWriter, load_records
from repro.shm import ShmCollector, ShmTraceRegion
from tests.core.test_parallel import as_comparable, assert_all_paths_identical

SEEDS = [int(s) for s in
         os.environ.get("FAULT_FUZZ_SEEDS", "0,1,2").split(",")]


@pytest.fixture(scope="module")
def drained():
    """One region, two attaches logging interleaved, drained to bytes.

    Returns ``(records, file_bytes)`` — the records as the collector
    emitted them and the standard trace-file serialization of the same.
    """
    region = ShmTraceRegion.create(ncpus=2, buffer_words=64, num_buffers=8)
    a = ShmTraceRegion.attach(region.name)
    b = ShmTraceRegion.attach(region.name)
    try:
        la = a.logger(0)
        lb = b.logger(1)
        for i in range(100):
            la.log_words(Major.TEST, 1, [i, i * 3][: 1 + i % 2])
            lb.log_words(Major.TEST, 2, [i])
        region.set_done()
        buf = io.BytesIO()
        writer = TraceFileWriter(buf, region.layout.buffer_words)
        ShmCollector(region).drain_to(writer, timeout_s=5)
    finally:
        a.close()
        b.close()
        region.close()
        region.unlink()
    data = buf.getvalue()
    return load_records(io.BytesIO(data)), data


class TestDrainedIdentity:
    @pytest.mark.parametrize("strict", [False, True])
    def test_all_paths_identical(self, drained, strict):
        records, _ = drained
        trace = assert_all_paths_identical(records, strict=strict)
        assert [a.kind for a in trace.anomalies
                if a.kind != "missing-anchor"] == []
        assert sum(len(v) for v in trace.events_by_cpu.values()) >= 200

    def test_with_fillers(self, drained):
        records, _ = drained
        assert_all_paths_identical(records, include_fillers=True)

    def test_file_round_trip_is_lossless(self, drained):
        records, data = drained
        reloaded = load_records(io.BytesIO(data))
        ref = as_comparable(TraceReader().decode_records(records))
        assert as_comparable(TraceReader().decode_records(reloaded)) == ref

    def test_committed_counts_cover_drained_buffers(self, drained):
        """The collector's gate: every full record it emitted live or at
        a quiesced finalize carries a covering committed count."""
        records, _ = drained
        for r in records:
            assert r.committed == r.fill_words, (r.cpu, r.seq)


class TestDrainedRecordFaults:
    @pytest.mark.parametrize("seed", SEEDS)
    @pytest.mark.parametrize("kind", RECORD_KINDS)
    def test_fault_yields_anomaly_never_raises(self, drained, kind, seed):
        records, _ = drained
        damaged, report = FaultInjector(seed).inject_records(records, kind)
        assert report.detectable, report.describe()
        trace = TraceReader().decode_records(damaged)
        assert trace.anomalies, (
            f"{kind} on drained trace (seed {seed}) decoded clean: "
            f"{report.describe()}")
        assert_all_paths_identical(damaged)
        assert_all_paths_identical(damaged, strict=True)


class TestDrainedFileFaults:
    @pytest.mark.parametrize("seed", SEEDS)
    @pytest.mark.parametrize("kind", FILE_KINDS)
    def test_fault_reported_never_raises(self, drained, kind, seed):
        _, data = drained
        hurt, report = FaultInjector(seed).inject_trace_bytes(data, kind)
        reader = TraceFileReader(io.BytesIO(hurt))
        loaded = reader.read_all()   # must not raise
        # A mid-frame truncation that leaves a well-formed header
        # prefix is byte-identical to an in-progress write, so it
        # surfaces as the "growing" tail verdict rather than an issue;
        # every other shape is an issue.
        assert reader.issues or reader.tail_state == "growing", \
            report.describe()
        if kind == "frame-magic":
            assert reader.issues, report.describe()
        assert loaded, "damage must not take the whole file with it"
        with pytest.raises((ValueError, EOFError)):
            TraceFileReader(io.BytesIO(hurt), strict=True).read_all()
        assert_all_paths_identical(loaded)
