"""Structure-of-arrays event batches: the columnar analytics layer.

Contract under test (the decode-equivalence contract of the columnar
reader): every view the columnar layer offers — ``EventBatch`` columns,
vectorized payload decoding via compiled layout plans, the merged
``ColumnarTrace`` — must be bit-identical to what the scalar reference
walk (``repro.check.oracle``) produces for the same input, on clean and
on damaged streams.
"""

import random

import numpy as np

from repro.check.oracle import reference_decode
from repro.core.columnar import (
    ColumnarTrace,
    ColumnarTraceReader,
    EventBatch,
    as_batch,
    decode_records_columnar,
)
from repro.core.packing import pack_values, parse_layout, unpack_values
from repro.core.registry import default_registry
from repro.core.stream import TraceEvent, TraceReader
from repro.core.writer import load_records, save_records
from tests.core.test_parallel import as_comparable, build_records


def _decode_both(records, **kw):
    reg = default_registry()
    scalar = reference_decode(records, registry=reg, **kw)
    columnar = ColumnarTraceReader(registry=reg, **kw).decode_records(records)
    return scalar, columnar


def _event_tuple(e):
    return (e.cpu, e.seq, e.offset, e.ts32, e.major, e.minor,
            tuple(e.data), e.time, e.spec.name if e.spec else None)


def _corrupt(records, seed=7, rate=0.4):
    rng = random.Random(seed)
    for rec in records:
        if rng.random() < rate and rec.fill_words > 1:
            rec.words[rng.randrange(1, rec.fill_words)] = \
                np.uint64(rng.getrandbits(64))
    return records


class TestEventBatch:
    def test_from_events_materializes_back_exactly(self):
        trace = TraceReader(registry=default_registry()).decode_records(
            build_records())
        events = trace.all_events()
        b = EventBatch.from_events(events, default_registry())
        assert len(b) == len(events)
        got = b.events()
        assert list(map(_event_tuple, got)) == list(map(_event_tuple, events))

    def test_concat_rebases_payload_offsets(self):
        trace = TraceReader(registry=default_registry()).decode_records(
            build_records())
        events = trace.all_events()
        reg = default_registry()
        cut1, cut2 = len(events) // 3, 2 * len(events) // 3
        parts = [EventBatch.from_events(chunk, reg)
                 for chunk in (events[:cut1], events[cut1:cut2],
                               events[cut2:], [])]
        whole = EventBatch.concat(parts)
        assert list(map(_event_tuple, whole.events())) == \
            list(map(_event_tuple, events))

    def test_select_shares_word_pool(self):
        b = as_batch(TraceReader(registry=default_registry())
                     .decode_records(build_records()))
        m = b.dlen >= 1
        sub = b.select(m)
        assert sub.words is b.words
        assert len(sub) == int(m.sum())
        assert list(map(_event_tuple, sub.events())) == \
            list(map(_event_tuple, b.events(np.flatnonzero(m))))

    def test_mask_names_matches_scalar_name_check(self):
        trace = TraceReader(registry=default_registry()).decode_records(
            build_records())
        b = as_batch(trace)
        events = trace.all_events()
        names = {events[0].name, events[-1].name}
        m = b.mask_names(names)
        assert m.tolist() == [e.name in names for e in events]
        assert not b.mask_names({"TRC_NO_SUCH_EVENT"}).any()

    def test_data_column_is_clipped_not_out_of_bounds(self):
        b = as_batch(TraceReader(registry=default_registry())
                     .decode_records(build_records()))
        # Ask for a payload word far beyond any event's dlen: the gather
        # must stay in-pool (garbage value, but no IndexError) exactly
        # so callers can mask on dlen afterwards.
        col = b.data_column(63)
        assert len(col) == len(b)

    def test_order_by_time_matches_all_events_order(self):
        trace = TraceReader(registry=default_registry()).decode_records(
            build_records())
        b = EventBatch.from_events(trace.events_by_cpu[0]
                                   + trace.events_by_cpu[1],
                                   default_registry())
        merged = b.select(b.order_by_time()).events()
        expect = sorted(trace.events_by_cpu[0] + trace.events_by_cpu[1],
                        key=lambda e: (e.time if e.time is not None else -1,
                                       e.cpu, e.seq, e.offset))
        assert list(map(_event_tuple, merged)) == \
            list(map(_event_tuple, expect))

    def test_empty_batch(self):
        b = EventBatch.empty(default_registry())
        assert len(b) == 0
        assert b.events() == []
        assert not b.mask(major=3).any()

    def test_arrays_roundtrip_is_bit_identical(self):
        trace = TraceReader(registry=default_registry()).decode_records(
            build_records())
        b = as_batch(trace)
        again = EventBatch.from_arrays(b.to_arrays(), default_registry())
        assert list(map(_event_tuple, again.events())) == \
            list(map(_event_tuple, b.events()))
        # The compacted pool holds exactly the referenced payload words.
        assert len(again.words) == int(b.dlen.sum())

    def test_arrays_roundtrip_on_corrupt_trace(self):
        scalar, columnar = _decode_both(_corrupt(build_records()))
        b = as_batch(columnar)
        again = EventBatch.from_arrays(b.to_arrays(), default_registry())
        assert list(map(_event_tuple, again.events())) == \
            list(map(_event_tuple, b.events()))

    def test_arrays_roundtrip_object_dtype_time(self):
        # A corrupt anchor can reconstruct times beyond int64; the time
        # column falls back to object dtype and the codec must carry the
        # exact values through a string-typed time_big array.
        trace = TraceReader(registry=default_registry()).decode_records(
            build_records(n_events=40, ncpus=1))
        events = trace.all_events()
        events[3].time = 2 ** 70 + 12345
        b = EventBatch.from_events(events, default_registry())
        assert b.time.dtype == object
        arrays = b.to_arrays()
        assert "time_big" in arrays and "time" not in arrays
        again = EventBatch.from_arrays(arrays, default_registry())
        assert again.time.dtype == object
        assert again.time.tolist() == b.time.tolist()
        assert list(map(_event_tuple, again.events())) == \
            list(map(_event_tuple, b.events()))

    def test_arrays_roundtrip_empty_and_single(self):
        empty = EventBatch.empty(default_registry())
        again = EventBatch.from_arrays(empty.to_arrays(), default_registry())
        assert len(again) == 0 and again.events() == []

        trace = TraceReader(registry=default_registry()).decode_records(
            build_records(n_events=40, ncpus=1))
        one = as_batch(trace).select(np.array([5]))
        again = EventBatch.from_arrays(one.to_arrays(), default_registry())
        assert list(map(_event_tuple, again.events())) == \
            list(map(_event_tuple, one.events()))

    def test_arrays_survive_npz(self, tmp_path):
        # The store shard format: savez with allow_pickle=False.
        trace = TraceReader(registry=default_registry()).decode_records(
            build_records())
        b = as_batch(trace)
        path = tmp_path / "shard.npz"
        np.savez_compressed(path, **b.to_arrays())
        with np.load(path, allow_pickle=False) as npz:
            again = EventBatch.from_arrays(dict(npz), default_registry())
        assert list(map(_event_tuple, again.events())) == \
            list(map(_event_tuple, b.events()))


class TestFieldColumns:
    def test_every_vectorizable_registry_layout(self):
        """The compiled plan decodes exactly like ``unpack_values`` for
        every fixed layout in the default registry."""
        reg = default_registry()
        rng = random.Random(0)
        checked = 0
        for spec in reg:
            plan = spec.plan
            if not plan.vectorizable or not plan.fields:
                continue
            tokens = parse_layout(spec.layout)
            events = []
            expected = []
            for i in range(4):
                values = [rng.randrange(1 << int(tok)) for tok in tokens]
                data = pack_values(spec.layout, values)
                events.append(TraceEvent(0, 0, i * 8, 0, spec.major,
                                         spec.minor, data, time=i,
                                         spec=spec))
                expected.append(unpack_values(spec.layout, data))
            b = EventBatch.from_events(events, reg)
            cols = b.field_columns(spec)
            assert cols is not None and len(cols) == len(tokens)
            for row in range(len(events)):
                got = [int(c[row]) for c in cols]
                assert got == expected[row], spec.name
            checked += 1
        assert checked > 10  # the registry is full of fixed layouts

    def test_str_layout_is_not_vectorizable(self):
        reg = default_registry()
        specs = [s for s in reg if "str" in parse_layout(s.layout)]
        assert specs, "registry should contain str layouts"
        b = EventBatch.empty(reg)
        for spec in specs:
            assert b.field_columns(spec) is None


class TestColumnarTrace:
    def test_clean_decode_identical_to_scalar(self):
        records = build_records()
        scalar, columnar = _decode_both(records)
        assert isinstance(columnar, ColumnarTrace)
        assert as_comparable(columnar) == as_comparable(scalar)
        assert columnar.anomalies == scalar.anomalies == []

    def test_corrupt_decode_identical_including_anomaly_order(self):
        records = _corrupt(build_records())
        for strict in (False, True):
            scalar, columnar = _decode_both(records, strict=strict)
            assert as_comparable(columnar) == as_comparable(scalar)
            assert columnar.anomalies == scalar.anomalies
            assert columnar.anomalies  # corruption must be visible

    def test_include_fillers(self):
        records = build_records()
        scalar, columnar = _decode_both(records, include_fillers=True)
        assert as_comparable(columnar) == as_comparable(scalar)

    def test_batch_is_time_ordered(self):
        _, columnar = _decode_both(build_records())
        b = columnar.batch()
        assert list(map(_event_tuple, b.events())) == \
            list(map(_event_tuple, columnar.to_trace().all_events()))

    def test_to_trace(self):
        records = build_records()
        scalar, columnar = _decode_both(records)
        assert as_comparable(columnar.to_trace()) == as_comparable(scalar)

    def test_decode_file(self, tmp_path):
        records = build_records()
        path = str(tmp_path / "t.k42")
        save_records(path, records, buffer_words=len(records[0].words))
        scalar = reference_decode(load_records(path),
                                  registry=default_registry())
        columnar = ColumnarTraceReader(
            registry=default_registry()).decode_file(path)
        assert as_comparable(columnar) == as_comparable(scalar)

    def test_empty_records(self):
        columnar = decode_records_columnar([], default_registry())
        assert columnar.to_trace().all_events() == []
        assert len(columnar.batch()) == 0
        assert columnar.anomalies == []


class TestAsBatch:
    def test_as_batch_caches_on_trace(self):
        trace = TraceReader(registry=default_registry()).decode_records(
            build_records())
        assert as_batch(trace) is as_batch(trace)

    def test_as_batch_identity_forms(self):
        _, columnar = _decode_both(build_records())
        b = columnar.batch()
        assert as_batch(b) is b
        assert as_batch(columnar) is b


class TestIncrementalAssembly:
    """``take()`` + ``WindowedBatches``: the live follower's seam."""

    def test_take_interleaved_matches_one_shot(self):
        """Feeding buffers and draining chunks interleaved must decode
        bit-identically to one uninterrupted assemble-then-finish —
        the timestamp-stitching state survives each take()."""
        from repro.core.columnar import ColumnarAssembler, WindowedBatches
        from repro.core.stream import scan_buffer

        records = build_records(n_events=400, ncpus=2)
        reg = default_registry()

        one_shot = decode_records_columnar(records, registry=reg)

        asm = ColumnarAssembler(registry=reg)
        window = WindowedBatches(registry=reg)
        for i, rec in enumerate(records):
            asm.add_buffer(rec, scan_buffer(rec.words, rec.fill_words))
            if i % 3 == 2:          # drain mid-stream, repeatedly
                window.absorb(asm.take())
        window.absorb(asm.take())
        live = window.trace()

        a, b = one_shot.batch(), live.batch()
        assert len(a) == len(b)
        for col in ("cpu", "seq", "offset", "ts32", "major", "minor",
                    "length", "dlen", "timed"):
            assert np.array_equal(getattr(a, col), getattr(b, col)), col
        assert a.time.tolist() == b.time.tolist()
        assert [_event_tuple(e) for e in a.events()] == \
            [_event_tuple(e) for e in b.events()]
        # Anomaly verdicts agree as a multiset (arrival order may
        # interleave CPUs differently than the post-mortem sweep).
        assert sorted((a2.cpu, a2.seq, a2.offset, a2.kind)
                      for a2 in one_shot.anomalies) == \
            sorted((a2.cpu, a2.seq, a2.offset, a2.kind)
                   for a2 in live.anomalies)

    def test_window_eviction_is_bounded_and_counted(self):
        from repro.core.columnar import ColumnarAssembler, WindowedBatches
        from repro.core.stream import scan_buffer

        records = build_records(n_events=600, ncpus=2)
        reg = default_registry()
        window = WindowedBatches(max_events=40, registry=reg)
        asm = ColumnarAssembler(registry=reg)
        fed = 0
        largest_chunk = 0
        for rec in records:
            asm.add_buffer(rec, scan_buffer(rec.words, rec.fill_words))
            chunk = asm.take()
            size = sum(len(b) for b in chunk.batches_by_cpu.values())
            fed += size
            largest_chunk = max(largest_chunk, size)
            window.absorb(chunk)
        assert window.evicted_events > 0
        assert window.total_events <= 40 + largest_chunk
        assert window.total_events + window.evicted_events == fed
        assert len(window.trace().batch()) == window.total_events

    def test_window_keeps_cpu_universe_after_eviction(self):
        """A CPU whose events were all evicted still contributes an
        empty lane — same as a post-mortem decode of an idle CPU."""
        from repro.core.columnar import ColumnarAssembler, WindowedBatches
        from repro.core.stream import scan_buffer

        records = build_records(n_events=300, ncpus=2)
        reg = default_registry()
        window = WindowedBatches(max_events=10, registry=reg)
        asm = ColumnarAssembler(registry=reg)
        # All of CPU 0 first, then all of CPU 1: CPU 0 evicts entirely.
        for rec in sorted(records, key=lambda r: (r.cpu, r.seq)):
            asm.add_buffer(rec, scan_buffer(rec.words, rec.fill_words))
            window.absorb(asm.take())
        trace = window.trace()
        assert trace.cpus == [0, 1]
        assert len(trace.cpu_batch(0)) == 0

    def test_window_rejects_nonsense_bound(self):
        import pytest

        from repro.core.columnar import WindowedBatches

        with pytest.raises(ValueError):
            WindowedBatches(max_events=0)
