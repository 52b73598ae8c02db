"""Fault-matrix fuzz tests: every injected corruption must be survived.

The contract: for each fault kind in :mod:`repro.core.faults`, decoding
(or file/dump reading) never raises — the damage surfaces as a typed
anomaly, issue, or dump issue — and with recovery enabled a mid-buffer
garble costs strictly fewer events than strict stop-at-first-garble
decoding would discard.  Clean traces stay bit-identical across scalar,
batched, and parallel paths with recovery on or off.

Seeds come from ``FAULT_FUZZ_SEEDS`` (comma-separated, default
``0,1,2``) so CI can sweep fresh seeds every run while local failures
stay reproducible.
"""

import io
import os

import numpy as np
import pytest

from repro.core.crashdump import read_dump
from repro.core.faults import (
    ALL_KINDS,
    DUMP_KINDS,
    FILE_KINDS,
    RECORD_KINDS,
    FaultInjector,
)
from repro.core.stream import TraceReader, scan_buffer
from repro.core.writer import TraceFileReader, save_records
from tests.core.test_parallel import (
    as_comparable,
    assert_all_paths_identical,
    build_records,
)

SEEDS = [int(s) for s in
         os.environ.get("FAULT_FUZZ_SEEDS", "0,1,2").split(",")]


def _rerun(seed, keyword):
    """One-line command that reproduces a failing seed locally."""
    return (f"re-run: FAULT_FUZZ_SEEDS={seed} PYTHONPATH=src "
            f"python -m pytest tests/core/test_faults.py -k {keyword}")


@pytest.fixture(scope="module")
def records():
    return build_records(n_events=500, ncpus=2)


def trace_bytes(records):
    buf = io.BytesIO()
    save_records(buf, records)
    return buf.getvalue()


def dump_image():
    from repro.core.crashdump import dump_bytes
    from repro.core.facility import TraceFacility
    from repro.core.majors import Major
    from repro.core.timestamps import ManualClock

    fac = TraceFacility(ncpus=2, buffer_words=64, num_buffers=4,
                        mode="flight", clock=ManualClock())
    fac.enable_all()
    for i in range(200):
        fac.clock.advance(3)
        fac.log(i % 2, Major.TEST, 1, (i,))
    return dump_bytes(fac.controls)


class TestCleanEquivalence:
    """Recovery must be invisible on undamaged traces."""

    @pytest.mark.parametrize("strict", [False, True])
    def test_clean_trace_identical_across_paths(self, records, strict):
        trace = assert_all_paths_identical(records, strict=strict)
        assert trace.anomalies == []

    def test_recovery_mode_does_not_change_clean_output(self, records):
        loose = TraceReader(strict=False).decode_records(records)
        strict = TraceReader(strict=True).decode_records(records)
        assert as_comparable(loose) == as_comparable(strict)


class TestRecordFaults:
    @pytest.mark.parametrize("seed", SEEDS)
    @pytest.mark.parametrize("kind", RECORD_KINDS)
    def test_fault_yields_anomaly_never_raises(self, records, kind, seed):
        why = _rerun(seed, "fault_yields_anomaly")
        damaged, report = FaultInjector(seed).inject_records(records, kind)
        assert report.detectable, f"{report.describe()}\n{why}"
        trace = TraceReader().decode_records(damaged)
        assert trace.anomalies, (
            f"{kind} injected (seed {seed}) but decode saw no anomaly: "
            f"{report.describe()}\n{why}")
        # Damage decodes identically on every path, strict or not.
        try:
            assert_all_paths_identical(damaged)
            assert_all_paths_identical(damaged, strict=True)
        except AssertionError as exc:
            raise AssertionError(
                f"reader paths diverged on {kind} (seed {seed})\n{why}"
            ) from exc

    @pytest.mark.parametrize("seed", SEEDS)
    def test_recovery_salvages_strictly_more(self, records, seed):
        """Acceptance: an injected mid-buffer garble costs strict mode
        more events than recovering mode."""
        damaged = [
            type(r)(cpu=r.cpu, seq=r.seq,
                    words=np.array(r.words, dtype=np.uint64),
                    committed=r.committed, fill_words=r.fill_words,
                    partial=r.partial)
            for r in records
        ]
        # Zero a mid-buffer header in a dense buffer: a guaranteed
        # garble with real events after it to salvage.
        rec = max(damaged, key=lambda r: r.fill_words)
        offsets = scan_buffer(rec.words, rec.fill_words).offsets
        assert len(offsets) > 4
        rec.words[offsets[len(offsets) // 2]] = np.uint64(0)

        loose = TraceReader(strict=False).decode_records(damaged)
        strict = TraceReader(strict=True).decode_records(damaged)
        why = _rerun(seed, "recovery_salvages")
        n_loose = sum(len(v) for v in loose.events_by_cpu.values())
        n_strict = sum(len(v) for v in strict.events_by_cpu.values())
        assert n_loose > n_strict, (
            f"recovery salvaged nothing: {n_loose} vs {n_strict} events "
            f"(seed {seed})\n{why}")
        kinds = [a.kind for a in loose.anomalies]
        assert "garbled" in kinds and "recovered-region" in kinds, \
            f"anomalies {kinds} (seed {seed})\n{why}"
        assert "recovered-region" not in [a.kind for a in strict.anomalies]

    @pytest.mark.parametrize("kind", RECORD_KINDS)
    def test_deterministic(self, records, kind):
        a, rep_a = FaultInjector(42).inject_records(records, kind)
        b, rep_b = FaultInjector(42).inject_records(records, kind)
        assert rep_a == rep_b
        for ra, rb in zip(a, b):
            assert ra.committed == rb.committed
            assert np.array_equal(ra.words, rb.words)


class TestFileFaults:
    @pytest.mark.parametrize("seed", SEEDS)
    @pytest.mark.parametrize("kind", FILE_KINDS)
    def test_fault_reported_never_raises(self, records, kind, seed):
        why = _rerun(seed, "TestFileFaults")
        data, report = FaultInjector(seed).inject_trace_bytes(
            trace_bytes(records), kind)
        reader = TraceFileReader(io.BytesIO(data))
        loaded = reader.read_all()   # must not raise
        # The damage must be *noticed*.  A mid-frame truncation that
        # leaves a well-formed header prefix is byte-identical to an
        # in-progress write, so it surfaces as the "growing" tail
        # verdict rather than an issue; every other shape is an issue.
        assert reader.issues or reader.tail_state == "growing", \
            f"{report.describe()}\n{why}"
        if kind == "frame-magic":
            assert reader.issues, f"{report.describe()}\n{why}"
        assert loaded, \
            f"damage must not take the whole file with it (seed {seed})\n{why}"
        with pytest.raises((ValueError, EOFError)):
            TraceFileReader(io.BytesIO(data), strict=True).read_all()

    def test_strict_decode_file_raises_on_frame_damage(self, records,
                                                       tmp_path):
        """A strict reader is strict about the file too: a stomped
        frame magic raises instead of being resynchronized past."""
        from repro.core.columnar import ColumnarTraceReader

        data, _report = FaultInjector(0).inject_trace_bytes(
            trace_bytes(records), "frame-magic")
        path = tmp_path / "stomped.k42"
        path.write_bytes(data)
        assert ColumnarTraceReader().decode_file(str(path)).ncpus
        with pytest.raises(ValueError, match="bad frame magic"):
            ColumnarTraceReader(strict=True).decode_file(str(path))


class TestDumpFaults:
    @pytest.mark.parametrize("seed", SEEDS)
    @pytest.mark.parametrize("kind", DUMP_KINDS)
    def test_fault_reported_never_raises(self, kind, seed):
        data, report = FaultInjector(seed).inject_dump_bytes(
            dump_image(), kind)
        dump = read_dump(data)   # must not raise
        assert dump.issues, (
            f"{report.describe()}\n{_rerun(seed, 'TestDumpFaults')}")


class TestInjectorApi:
    def test_unknown_kinds_rejected(self, records):
        inj = FaultInjector(0)
        with pytest.raises(ValueError):
            inj.inject_records(records, "frame-magic")
        with pytest.raises(ValueError):
            inj.inject_trace_bytes(trace_bytes(records), "torn-event")
        with pytest.raises(ValueError):
            inj.inject_dump_bytes(dump_image(), "header-bitflip")

    def test_originals_untouched(self, records):
        before = [np.array(r.words, dtype=np.uint64) for r in records]
        committed = [r.committed for r in records]
        for kind in RECORD_KINDS:
            FaultInjector(3).inject_records(records, kind)
        for r, w, c in zip(records, before, committed):
            assert np.array_equal(r.words, w)
            assert r.committed == c

    def test_kind_lists_are_disjoint_and_complete(self):
        assert set(RECORD_KINDS) | set(FILE_KINDS) | set(DUMP_KINDS) \
            == set(ALL_KINDS)
        assert len(ALL_KINDS) == len(set(ALL_KINDS))
