"""Decode equivalence: the decoder must match the reference oracle.

The contract under test: ``ColumnarTraceReader`` (the one decoder),
``decode_records_columnar_parallel`` (the same scan fanned out over a
boundary-sharded worker pool) and the word-at-a-time reference walk
(``repro.check.oracle.reference_decode``) produce event-for-event,
anomaly-for-anomaly identical traces — on clean streams, on every
garble class the format can exhibit, with and without fillers, and
across shard cuts that separate a buffer from its timestamp anchor
state.
"""

import random

import numpy as np

from repro.check.oracle import reference_decode
from repro.core.buffers import TraceControl
from repro.core.facility import TraceFacility
from repro.core.header import pack_header
from repro.core.logger import TraceLogger
from repro.core.majors import ControlMinor, Major
from repro.core.mask import TraceMask
from repro.core.columnar import ColumnarTrace, ColumnarTraceReader
from repro.core.parallel import (
    decode_records_columnar_parallel,
    shard_records,
)
from repro.core.registry import default_registry
from repro.core.stream import scan_buffer, unwrap_times
from repro.core.timestamps import ManualClock


def build_records(n_events=600, ncpus=3, buffer_words=64, tick=7,
                  start=1000):
    clock = ManualClock(start=start)
    fac = TraceFacility(ncpus=ncpus, buffer_words=buffer_words,
                        num_buffers=4, clock=clock)
    fac.enable_all()
    records = []
    for i in range(n_events):
        fac.log(i % ncpus, 2 + (i % 6), i % 16, [i, i * 7][: i % 3])
        clock.advance(tick)
        if i % 150 == 149:
            records.extend(fac.drain())
    records.extend(fac.flush())
    return records


def as_comparable(trace):
    """Events and anomalies as plain tuples; a ``ColumnarTrace`` is
    materialized through ``to_trace()`` first."""
    if isinstance(trace, ColumnarTrace):
        trace = trace.to_trace()
    events = {
        cpu: [
            (e.cpu, e.seq, e.offset, e.ts32, e.major, e.minor,
             tuple(e.data), e.time, e.spec.name if e.spec else None)
            for e in evs
        ]
        for cpu, evs in trace.events_by_cpu.items()
    }
    anomalies = [(a.cpu, a.seq, a.offset, a.kind, a.detail)
                 for a in trace.anomalies]
    return events, anomalies


def assert_all_paths_identical(records, include_fillers=False, workers=3,
                               strict=False):
    """Oracle vs the decoder vs the decoder on a pool; returns the
    oracle's ``Trace``."""
    reg = default_registry()
    oracle = reference_decode(records, registry=reg,
                              include_fillers=include_fillers, strict=strict)
    col = ColumnarTraceReader(registry=reg, include_fillers=include_fillers,
                              strict=strict).decode_records(records)
    col_par = decode_records_columnar_parallel(
        records, registry=reg, include_fillers=include_fillers,
        workers=workers, strict=strict)
    ref = as_comparable(oracle)
    assert as_comparable(col) == ref
    assert as_comparable(col_par) == ref
    return oracle


class TestCleanEquivalence:
    def test_multi_cpu_trace(self):
        records = build_records()
        trace = assert_all_paths_identical(records)
        assert sum(len(v) for v in trace.events_by_cpu.values()) > 500
        assert trace.anomalies == []

    def test_with_fillers(self):
        records = build_records()
        assert_all_paths_identical(records, include_fillers=True)

    def test_near_wrap_timestamps(self):
        # 32-bit timestamp wrap mid-trace exercises the cumsum unwrap.
        records = build_records(start=(1 << 32) - 2000)
        assert_all_paths_identical(records)

    def test_single_buffer_falls_back_sequential(self):
        records = build_records(n_events=10, ncpus=1)
        assert_all_paths_identical(records, workers=4)

    def test_workers_one_is_sequential(self):
        records = build_records()
        reg = default_registry()
        seq = ColumnarTraceReader(registry=reg).decode_records(records)
        one = decode_records_columnar_parallel(records, registry=reg,
                                               workers=1)
        assert as_comparable(one) == as_comparable(seq)


class TestGarbledEquivalence:
    """Every garble class decodes identically on every path."""

    def _corrupt(self, mutate):
        """Mutate a mid-trace record; ``mutate`` gets the record, its
        words, and the offsets of real event headers in the buffer."""
        records = build_records()
        rec = records[len(records) // 2]
        words = np.array(rec.words, dtype=np.uint64, copy=True)
        offsets = scan_buffer(words, rec.fill_words).offsets
        assert len(offsets) > 4
        mutate(rec, words, offsets)
        rec.words = words
        return records

    def _assert_identical_with_anomaly(self, records, kind="garbled"):
        trace = assert_all_paths_identical(records)
        assert any(a.kind == kind for a in trace.anomalies)
        assert_all_paths_identical(records, include_fillers=True)
        # Strict (stop-at-first-garble) must also agree across paths.
        assert_all_paths_identical(records, strict=True)

    def test_zeroed_header(self):
        def mutate(rec, w, offs):
            w[offs[2]] = 0

        self._assert_identical_with_anomaly(self._corrupt(mutate))

    def test_overrun_length(self):
        def mutate(rec, w, offs):
            w[offs[2]] = pack_header(1 << 20, 1000, Major.TEST, 1)

        self._assert_identical_with_anomaly(self._corrupt(mutate))

    def test_timestamp_regression(self):
        def mutate(rec, w, offs):
            # A header claiming a huge backwards timestamp jump.
            w[offs[3]] = pack_header(1, 1, Major.TEST, 1)

        self._assert_identical_with_anomaly(self._corrupt(mutate))

    def test_truncated_extended_filler(self):
        def mutate(rec, w, offs):
            # An extended filler whose span word lies past the buffer.
            w[offs[-1]] = pack_header(1 << 20, 0, Major.CONTROL,
                                      ControlMinor.FILLER_EXT)
            rec.fill_words = offs[-1] + 1

        self._assert_identical_with_anomaly(self._corrupt(mutate))

    def test_bad_extended_filler_span(self):
        def mutate(rec, w, offs):
            w[offs[2]] = pack_header(1 << 20, 0, Major.CONTROL,
                                     ControlMinor.FILLER_EXT)
            w[offs[2] + 1] = 1  # span < 2 can never be a real filler

        self._assert_identical_with_anomaly(self._corrupt(mutate))

    def test_committed_mismatch(self):
        def mutate(rec, w, offs):
            rec.committed = max(0, rec.committed - 3)

        records = self._corrupt(mutate)
        self._assert_identical_with_anomaly(records, "committed-mismatch")

    def test_unrepresentable_sequence_number(self):
        """A damaged frame header can carry any u64 as its sequence
        number; every side distrusts such a buffer whole, the same way."""
        records = build_records()
        victim = records[len(records) // 2]
        victim.seq += 1 << 63
        trace = assert_all_paths_identical(records)
        assert [(a.cpu, a.seq, a.kind) for a in trace.anomalies] == \
            [(victim.cpu, victim.seq, "garbled")]
        assert "implausible buffer sequence" in trace.anomalies[0].detail
        assert {(e.cpu, e.seq) for e in trace.all_events()} == \
            {(r.cpu, r.seq) for r in records if r is not victim}

    def test_random_garbage_fuzz(self):
        """Deterministic adversarial sweep over corruption modes."""
        for seed in range(25):
            rng = random.Random(seed)
            records = build_records(
                n_events=rng.randint(100, 500),
                ncpus=rng.randint(1, 4),
                start=(1 << 32) - 3000 if seed % 3 == 0 else 1000,
            )
            for rec in records:
                if rng.random() < 0.5:
                    w = np.array(rec.words, dtype=np.uint64, copy=True)
                    k = rng.randrange(max(1, rec.fill_words))
                    mode = rng.randrange(4)
                    if mode == 0:
                        w[k] = 0
                    elif mode == 1:
                        w[k] = pack_header(
                            rng.getrandbits(32), rng.randint(0, 1023),
                            rng.randint(0, 63), rng.getrandbits(16))
                    elif mode == 2:
                        w[k] = rng.getrandbits(64)
                    else:
                        rec.committed = max(0, rec.committed
                                            - rng.randint(1, 10))
                    rec.words = w
            for inc in (False, True):
                assert_all_paths_identical(records, include_fillers=inc,
                                           workers=rng.randint(2, 4),
                                           strict=seed % 2 == 1)


class TestShardStitching:
    """Shard cuts that strand a buffer away from its timestamp anchor."""

    def _anchorless_chain(self):
        """Four buffers on one CPU where only some carry anchors, so
        times for the rest must be unwrapped across buffer (and shard)
        boundaries."""
        control = TraceControl(buffer_words=32, num_buffers=8)
        mask = TraceMask()
        mask.enable_all()
        clock = ManualClock(start=500)
        logger = TraceLogger(control, mask, clock,
                             registry=default_registry())
        logger.start()
        for i in range(70):
            clock.advance(11)
            logger.log_words(Major.TEST, 1, [i])
        records = control.flush()
        assert len(records) >= 4
        # Strip the anchor from every buffer except the first: overwrite
        # the anchor event's header with a plain TEST event.
        reg = default_registry()
        for rec in records[1:]:
            w = np.array(rec.words, dtype=np.uint64, copy=True)
            scan = scan_buffer(w, rec.fill_words)
            for off in scan.offsets:
                hdr_ts = scan.cols.ts32[off]
                if (scan.cols.major[off] == Major.CONTROL
                        and scan.cols.minor[off]
                        == ControlMinor.TIMESTAMP_ANCHOR):
                    w[off] = pack_header(hdr_ts, scan.cols.length[off],
                                         Major.TEST, 7)
            rec.words = w
        return records

    def test_anchorless_buffers_stitch_across_shards(self):
        records = self._anchorless_chain()
        trace = assert_all_paths_identical(records, workers=2)
        kinds = [a.kind for a in trace.anomalies]
        assert "missing-anchor" in kinds
        # Every event still got a reconstructed time.
        for evs in trace.events_by_cpu.values():
            assert all(e.time is not None for e in evs)

    def test_shards_cut_at_every_boundary(self):
        """Force one shard per buffer — the worst stitching case."""
        records = self._anchorless_chain()
        reg = default_registry()
        seq = reference_decode(records, registry=reg)
        par = decode_records_columnar_parallel(
            records, registry=reg, workers=2,
            shards_per_worker=len(records))
        assert as_comparable(par) == as_comparable(seq)


class TestStartMethods:
    """Spawn-only platforms now decode on a persistent spawn pool; a
    disabled pool (``REPRO_POOL_START_METHOD=none``) runs the shard
    scans in-process — every mode stays bit-identical to sequential."""

    def test_forced_spawn_pool_identical(self, monkeypatch):
        from repro.core import pool

        monkeypatch.setenv("REPRO_POOL_START_METHOD", "spawn")
        pool.shutdown()
        try:
            records = build_records()
            reg = default_registry()
            seq = reference_decode(records, registry=reg)
            par = decode_records_columnar_parallel(records, registry=reg,
                                                   workers=2)
            assert pool.pool_kind() == "spawn"
            assert as_comparable(par) == as_comparable(seq)
        finally:
            pool.shutdown()

    def test_pool_disabled_runs_in_process(self, monkeypatch):
        from repro.core import pool

        monkeypatch.setenv("REPRO_POOL_START_METHOD", "none")
        pool.shutdown()
        records = build_records()
        reg = default_registry()
        seq = reference_decode(records, registry=reg, strict=True)
        par = decode_records_columnar_parallel(records, registry=reg,
                                               workers=3, strict=True)
        assert pool.pool_kind() is None
        assert as_comparable(par) == as_comparable(seq)


class TestEmptyTrace:
    """An empty/header-only trace must decode with --workers (the old
    per-call executor raised ``ValueError: max_workers`` on 0 shards)."""

    def test_empty_records_parallel(self):
        cols = decode_records_columnar_parallel([], workers=4)
        assert cols.cpus == []
        assert cols.to_trace().events_by_cpu == {}

    def test_run_tasks_empty_guard(self):
        from repro.core.parallel import _run_tasks

        assert _run_tasks([], 4) == []

    def test_header_only_file_with_workers(self, tmp_path, capsys):
        """``pack --workers`` is the CLI's one pooled path."""
        from repro.cli import main
        from repro.core.writer import save_records

        path = str(tmp_path / "empty.k42")
        store = str(tmp_path / "empty.store")
        save_records(path, [], buffer_words=64)
        assert main(["pack", path, store, "--workers", "4"]) == 0
        assert main(["list", store]) == 0
        assert main(["info", store]) == 0
        out = capsys.readouterr().out
        assert "events: 0  shards: 0" in out and "frames: 0" in out


class TestShardRecords:
    def test_contiguous_and_complete(self):
        records = build_records(ncpus=3)
        shards = shard_records(records, 6)
        seen = {}
        for cpu, recs in shards:
            assert all(r.cpu == cpu for r in recs)
            seqs = [r.seq for r in recs]
            assert seqs == sorted(seqs)
            seen.setdefault(cpu, []).extend(seqs)
        for cpu, seqs in seen.items():
            expected = sorted(r.seq for r in records if r.cpu == cpu)
            assert seqs == expected  # contiguous concatenation, in order

    def test_deterministic(self):
        records = build_records()
        a = shard_records(records, 5)
        b = shard_records(records, 5)
        assert [(c, [r.seq for r in rs]) for c, rs in a] == \
               [(c, [r.seq for r in rs]) for c, rs in b]

    def test_budget_respected(self):
        records = build_records(ncpus=2)
        assert len(shard_records(records, 4)) <= 4 + 2  # rounding slack
        assert len(shard_records(records, 1)) >= 2  # at least one per CPU

    def test_empty(self):
        assert shard_records([], 4) == []


def unwrap_one_buffer(ts32, last_full, last_ts32, anchors=()):
    """``unwrap_times`` under the rule inside one buffer: the first
    anchor governs from event 0, every later one from its own index."""
    return unwrap_times(ts32, last_full, last_ts32, anchors,
                        [0, *(i for i, _ in anchors[1:])][:len(anchors)])


class TestUnwrapTimes:
    def test_no_events(self):
        assert unwrap_one_buffer([], None, None) is None

    def test_no_basis(self):
        assert unwrap_one_buffer([5, 6], None, None) is None

    def test_anchor_based(self):
        ts = [10, 20, 15, 30]
        times = unwrap_one_buffer(ts, None, None, anchors=[(1, 1_000_020)])
        assert times.tolist() == [1_000_010, 1_000_020, 1_000_015, 1_000_030]

    def test_state_based_wraps(self):
        wrap = 1 << 32
        ts = [wrap - 2 & 0xFFFFFFFF, 3]
        times = unwrap_one_buffer(ts, 5_000_000_000, wrap - 10)
        assert times[0] == 5_000_000_008
        assert times[1] == 5_000_000_013

    def test_single_event(self):
        assert unwrap_one_buffer([7], None, None, anchors=[(0, 99)]) == [99]

    def test_rebases_at_each_anchor(self):
        """Two anchors bridging a gap > 2^31: the deltas between them
        are meaningless, the second anchor's full value is the truth."""
        gap = 3_000_000_000  # > 2^31, unrepresentable as a 32-bit delta
        ts = [100, 110, (100 + gap) & 0xFFFFFFFF, (100 + gap + 5) & 0xFFFFFFFF]
        anchors = [(0, 100), (2, 100 + gap)]
        times = unwrap_one_buffer(ts, None, None, anchors=anchors)
        assert times.tolist() == [100, 110, 100 + gap, 100 + gap + 5]

    def test_events_before_first_anchor_chain_backward(self):
        ts = [10, 20, 30]
        times = unwrap_one_buffer(ts, None, None, anchors=[(1, 1_000_020)])
        assert times.tolist() == [1_000_010, 1_000_020, 1_000_030]

    def test_rebase_points_split_a_run_of_buffers(self):
        """Two buffers of three events folded as one run: the second
        buffer's anchor sits mid-buffer and governs that buffer from its
        first event, not the tail of the buffer before it."""
        ts = [10, 20, 30, 5, 15, 25]
        times = unwrap_times(ts, None, None,
                             anchors=[(0, 1_000), (4, 9_015)],
                             rebase_at=[0, 3])
        assert times.tolist() == [1_000, 1_010, 1_020, 9_005, 9_015, 9_025]

    def test_carried_state_governs_up_to_first_rebase(self):
        ts = [10, 20, 5, 15]
        times = unwrap_times(ts, 700, 3, anchors=[(3, 9_015)],
                             rebase_at=[2])
        assert times.tolist() == [707, 717, 9_005, 9_015]

    def test_anchor_beyond_int64_keeps_exact_values(self):
        big = (1 << 64) - 5
        times = unwrap_one_buffer([10, 20, 30], None, None, anchors=[(1, big)])
        assert times.dtype == object
        assert times.tolist() == [big - 10, big, big + 10]
        # In range again after a later, sane anchor: still one column.
        times = unwrap_one_buffer([10, 20, 30], None, None,
                                  anchors=[(0, big), (2, 77)])
        assert times.tolist() == [big, big + 10, 77]


class TestLateAnchorGap:
    """A writer that starts logging > 2^31 ticks after the buffer's
    first anchor — the shared-memory attach scenario.  A fresh
    full-width anchor must carry the stream across the gap on every
    reader path, with exact absolute times and no garble verdicts."""

    GAP = 3_000_000_000  # ~3 s in ns: greater than 2^31

    def build(self, with_anchor):
        clock = ManualClock(start=500)
        fac = TraceFacility(ncpus=1, buffer_words=64, num_buffers=4,
                            clock=clock)
        fac.enable_all()
        fac.log(0, Major.TEST, 1, [1])
        clock.advance(self.GAP)
        if with_anchor:
            fac.logger(0).log_timestamp_anchor()
        for i in range(5):
            fac.log(0, Major.TEST, 2, [i])
            clock.advance(7)
        return fac.flush()

    def test_fresh_anchor_bridges_gap(self):
        records = self.build(with_anchor=True)
        trace = assert_all_paths_identical(records)
        assert trace.anomalies == []
        late = [e for e in trace.events(0)
                if e.major == Major.TEST and e.minor == 2]
        assert len(late) == 5
        assert late[0].time == 500 + self.GAP
        assert [e.time for e in late] == \
            [500 + self.GAP + 7 * i for i in range(5)]

    def test_without_anchor_gap_is_flagged(self):
        """Sanity check of the failure mode the anchor prevents: the
        same stream minus the anchor reads as a timestamp regression."""
        records = self.build(with_anchor=False)
        trace = assert_all_paths_identical(records)
        assert "garbled" in [a.kind for a in trace.anomalies]


class TestCorruptAnchorValue:
    def test_anchor_value_beyond_int64_identical_on_every_path(self):
        """A stomped anchor payload reconstructs times that do not fit
        int64: every path must carry the exact Python ints."""
        records = build_records(ncpus=1)
        rec = records[1]
        words = np.array(rec.words, dtype=np.uint64, copy=True)
        scan = scan_buffer(words, rec.fill_words)
        anchor = next(
            off for off in scan.offsets
            if scan.cols.major[off] == Major.CONTROL
            and scan.cols.minor[off] == ControlMinor.TIMESTAMP_ANCHOR)
        words[anchor + 1] = (1 << 64) - 1000
        rec.words = words
        trace = assert_all_paths_identical(records)
        assert any(e.time > 1 << 63 for e in trace.events(0))
        assert any(e.time < 1 << 40 for e in trace.events(0))


class TestCliWorkers:
    def test_cli_list_workers_matches_sequential(self, tmp_path, capsys):
        """A store ``pack --workers 3`` wrote lists like the trace."""
        from repro.cli import main
        from repro.core.writer import save_records

        records = build_records()
        path = str(tmp_path / "t.k42")
        store = str(tmp_path / "t.store")
        save_records(path, records)
        assert main(["list", path, "--limit", "50"]) == 0
        seq_out = capsys.readouterr().out
        assert main(["pack", path, store, "--workers", "3",
                     "--shard-events", "64"]) == 0
        capsys.readouterr()
        assert main(["list", store, "--limit", "50"]) == 0
        par_out = capsys.readouterr().out
        assert par_out == seq_out
        assert "TRC_" in seq_out
