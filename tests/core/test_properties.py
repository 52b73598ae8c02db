"""Property-based tests (hypothesis) for the core invariants.

The invariants the paper's design rests on:

1. any sequence of variable-length events logs and decodes back exactly
   (no event lost, no data corrupted, order preserved);
2. no event ever crosses an alignment boundary;
3. every alignment boundary is a valid decode entry point, and decoding
   from it yields exactly the sequential suffix;
4. per-CPU full timestamps are non-decreasing after reconstruction;
5. committed counts equal buffer fill for every completed buffer;
6. the decoder never crashes or loops on arbitrary corrupted input —
   it either decodes or reports an anomaly, always terminating;
7. serialization round-trips losslessly.
"""

import io
import os
import random

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.check.oracle import reference_decode
from repro.core.buffers import BufferRecord, TraceControl
from repro.core.faults import RECORD_KINDS, FaultInjector
from repro.core.logger import TraceLogger
from repro.core.majors import Major
from repro.core.mask import TraceMask
from repro.core.registry import default_registry
from repro.core.stream import TraceReader, decode_from_offset, flat_records
from repro.core.timestamps import ManualClock
from repro.core.writer import load_records, save_records

# One logged event: (data word count, tick advance).
event_strategy = st.tuples(st.integers(0, 10), st.integers(0, 50))
sequence_strategy = st.lists(event_strategy, min_size=0, max_size=120)

SETTINGS = dict(
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


def log_sequence(events, buffer_words=64, num_buffers=8, mode="writeout"):
    control = TraceControl(buffer_words=buffer_words,
                           num_buffers=num_buffers, mode=mode)
    mask = TraceMask()
    mask.enable_all()
    clock = ManualClock()
    logger = TraceLogger(control, mask, clock, registry=default_registry())
    logger.start()
    logged = []
    for i, (nwords, tick) in enumerate(events):
        clock.advance(tick)
        data = [(i << 8) | k for k in range(nwords)]
        logger.log_words(Major.TEST, 1, data)
        logged.append((clock.now(), data))
    return control, logged


@given(sequence_strategy)
@settings(**SETTINGS)
def test_roundtrip_exact(events):
    """Invariant 1: log -> decode is the identity on the event stream."""
    control, logged = log_sequence(events)
    trace = TraceReader(registry=default_registry()).decode_records(
        control.flush()
    )
    assert trace.anomalies == []
    got = [(e.time, e.data) for e in trace.events(0) if e.major == Major.TEST]
    assert got == logged


@given(sequence_strategy)
@settings(**SETTINGS)
def test_no_event_crosses_boundary(events):
    """Invariant 2: every event fits within one aligned buffer."""
    control, _ = log_sequence(events, buffer_words=32)
    reader = TraceReader(registry=default_registry(), include_fillers=True)
    records = control.flush()
    for rec in records:
        evs = reader.decode_one(rec).events(rec.cpu)
        for e in evs:
            if e.is_filler:
                continue
            assert e.offset + len(e.data) + 1 <= 32


@given(sequence_strategy, st.integers(0, 10_000))
@settings(**SETTINGS)
def test_every_boundary_is_entry_point(events, seek):
    """Invariant 3: decode-from-boundary == sequential suffix."""
    control, _ = log_sequence(events, buffer_words=32, num_buffers=16)
    records = [r for r in control.flush() if not r.partial]
    if not records:
        return
    flat = np.concatenate([r.words for r in records])
    reader = TraceReader(registry=default_registry(), check_committed=False)
    seq_events = reader.decode_records(flat_records(flat, 32)).events(0)
    offset = seek % len(flat)
    sub = decode_from_offset(flat, 32, offset, registry=default_registry())
    start_buf = offset // 32
    expect = [(e.seq, e.offset, e.data) for e in seq_events
              if e.seq >= start_buf]
    got = [(e.seq, e.offset, e.data) for e in sub.events(0)]
    assert got == expect


@given(sequence_strategy)
@settings(**SETTINGS)
def test_timestamps_nondecreasing(events):
    """Invariant 4: reconstructed times are monotone per CPU."""
    control, _ = log_sequence(events, buffer_words=32)
    reader = TraceReader(registry=default_registry(), include_fillers=True)
    trace = reader.decode_records(control.flush())
    times = [e.time for e in trace.events(0)]
    assert all(a <= b for a, b in zip(times, times[1:]))


@given(sequence_strategy)
@settings(**SETTINGS)
def test_committed_counts_exact(events):
    """Invariant 5: completed buffers commit exactly their size."""
    control, _ = log_sequence(events, buffer_words=32)
    for rec in control.flush():
        if not rec.partial:
            assert rec.committed == rec.fill_words
        else:
            assert rec.committed == rec.fill_words  # quiesced partial too


@given(
    sequence_strategy,
    st.lists(st.tuples(st.integers(0, 511), st.integers(0, 2**64 - 1)),
             min_size=1, max_size=8),
)
@settings(**SETTINGS)
def test_decoder_total_on_corruption(events, mutations):
    """Invariant 6: arbitrary word mutations never crash or hang the
    decoder; it reports anomalies instead."""
    control, _ = log_sequence(events, buffer_words=64, num_buffers=8)
    records = control.flush()
    if not records:
        return
    for pos, value in mutations:
        rec = records[pos % len(records)]
        rec.words[pos % len(rec.words)] = np.uint64(value)
    reader = TraceReader(registry=default_registry())
    trace = reader.decode_records(records)  # must terminate, not raise
    for e in trace.all_events():
        assert 0 <= e.major < 64
        assert len(e.data) <= 63  # buffer-bounded


@given(st.data())
@settings(max_examples=30, deadline=None)
def test_decoder_total_on_random_buffers(data):
    """Invariant 6 on uniformly random memory."""
    n = data.draw(st.integers(1, 4))
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    records = [
        BufferRecord(cpu=0, seq=k,
                     words=rng.integers(0, 2**64, size=64, dtype=np.uint64),
                     committed=64, fill_words=64)
        for k in range(n)
    ]
    reader = TraceReader(registry=default_registry())
    reader.decode_records(records)  # terminates without raising


@given(sequence_strategy)
@settings(**SETTINGS)
def test_serialization_roundtrip(events):
    """Invariant 7: save/load preserves the decoded stream exactly."""
    control, _ = log_sequence(events)
    records = control.flush()
    if not records:
        return
    buf = io.BytesIO()
    save_records(buf, records)
    buf.seek(0)
    reloaded = load_records(buf)
    reader = TraceReader(registry=default_registry())
    a = reader.decode_records(records)
    b = reader.decode_records(reloaded)
    assert [(e.time, e.major, e.minor, e.data) for e in a.events(0)] == \
        [(e.time, e.major, e.minor, e.data) for e in b.events(0)]


# --- reader-path equivalence -------------------------------------------
#
# Invariant 8: the word-at-a-time reference walk
# (repro.check.oracle), the columnar decoder and the same decoder on a
# boundary-sharded worker pool are bit-identical on the same input —
# event for event, anomaly for anomaly — in both resynchronizing and
# strict (stop-at-first-garble) modes.  The helpers come from the exhaustive equivalence suite in
# test_parallel.py.

from tests.core.test_parallel import (  # noqa: E402
    as_comparable,
    assert_all_paths_identical,
    build_records,
)

_SEEDS = [int(s) for s in
          os.environ.get("FAULT_FUZZ_SEEDS", "0,1,2").split(",")]


def _rerun(seed, keyword):
    return (f"re-run: FAULT_FUZZ_SEEDS={seed} PYTHONPATH=src "
            f"python -m pytest tests/core/test_properties.py -k {keyword}")


def _random_stream(seed):
    """A seeded, arbitrary multi-CPU event stream (drains mid-run so
    buffer boundaries land at random fill levels)."""
    rng = random.Random(seed)
    return build_records(
        n_events=rng.randint(50, 400),
        ncpus=rng.randint(1, 3),
        buffer_words=rng.choice([32, 64]),
        tick=rng.randint(1, 20),
        start=(1 << 32) - 1500 if rng.random() < 0.3 else rng.randint(1, 10**6),
    )


@pytest.mark.parametrize("seed", _SEEDS)
@pytest.mark.parametrize("strict", [False, True],
                         ids=["resync", "strict"])
def test_seeded_roundtrip_identical_across_readers(seed, strict):
    """Invariant 8 on clean seeded streams: oracle == decoder ==
    parallel, and the decoded stream is anomaly-free."""
    records = _random_stream(seed)
    try:
        trace = assert_all_paths_identical(records, workers=2,
                                           strict=strict)
    except AssertionError as exc:
        raise AssertionError(
            f"reader paths diverged (seed {seed}, strict={strict}); "
            + _rerun(seed, "seeded_roundtrip")) from exc
    assert trace.anomalies == [], (
        f"clean stream decoded with anomalies (seed {seed}); "
        + _rerun(seed, "seeded_roundtrip"))


@pytest.mark.parametrize("seed", _SEEDS)
def test_seeded_corruption_identical_across_readers(seed):
    """Invariant 8 under corruption: random word stomps must not make
    any reader path disagree with the scalar reference, in either
    anomaly-handling mode."""
    rng = random.Random(seed ^ 0xC0FFEE)
    records = _random_stream(seed)
    for rec in records:
        if rng.random() < 0.4:
            w = np.array(rec.words, dtype=np.uint64, copy=True)
            w[rng.randrange(max(1, rec.fill_words))] = rng.getrandbits(64)
            rec.words = w
    for strict in (False, True):
        try:
            assert_all_paths_identical(records, workers=2, strict=strict)
        except AssertionError as exc:
            raise AssertionError(
                f"reader paths diverged on corrupted stream "
                f"(seed {seed}, strict={strict}); "
                + _rerun(seed, "seeded_corruption")) from exc


@pytest.mark.parametrize("seed", _SEEDS)
@pytest.mark.parametrize("kind", RECORD_KINDS)
def test_seeded_fault_injection_identical_across_readers(seed, kind):
    """Invariant 8 under the fault matrix: every damage class the
    injector can produce yields the same events AND the same
    garble/resync verdicts (anomaly for anomaly) on the columnar path
    as on the scalar walk, in both anomaly-handling modes."""
    records = _random_stream(seed)
    if not any(r.fill_words > 0 for r in records):
        return
    damaged, _report = FaultInjector(seed).inject_records(records, kind)
    for strict in (False, True):
        try:
            assert_all_paths_identical(damaged, workers=2, strict=strict)
        except AssertionError as exc:
            raise AssertionError(
                f"reader paths diverged on injected {kind} "
                f"(seed {seed}, strict={strict}); "
                + _rerun(seed, "fault_injection")) from exc


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=8, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
def test_reader_paths_identical_on_arbitrary_streams(seed):
    """Invariant 8, hypothesis-driven: the event-object view of the
    decoder against the reference walk."""
    records = _random_stream(seed)
    reg = default_registry()
    scalar = reference_decode(records, registry=reg)
    batched = TraceReader(registry=reg).decode_records(records)
    assert as_comparable(batched) == as_comparable(scalar), (
        "TraceReader diverged from the oracle; "
        + _rerun(seed, "arbitrary_streams"))


@given(sequence_strategy)
@settings(**SETTINGS)
def test_flight_recorder_retains_suffix(events):
    """Flight mode: the snapshot is always a contiguous suffix of what
    was logged (never a gap in the middle)."""
    control, logged = log_sequence(events, buffer_words=32, num_buffers=4,
                                   mode="flight")
    trace = TraceReader(registry=default_registry()).decode_records(
        control.snapshot()
    )
    got = [tuple(e.data) for e in trace.events(0) if e.major == Major.TEST]
    want = [tuple(d) for _, d in logged]
    assert got == want[len(want) - len(got):]
