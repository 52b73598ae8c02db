"""Crash-dump tool tests (§4.2's future-work item, implemented)."""

import io

import numpy as np
import pytest

from repro.core.crashdump import (
    MAX_BUFFER_WORDS,
    MAX_NUM_BUFFERS,
    dump_bytes,
    read_dump,
    write_dump,
)
from repro.core.facility import TraceFacility
from repro.core.majors import Major
from repro.core.registry import default_registry
from repro.core.stream import TraceReader
from repro.core.timestamps import ManualClock


def crashed_facility(n_events=700, zero_ahead=False):
    """A facility mid-run, as a crash would find it."""
    fac = TraceFacility(ncpus=2, buffer_words=64, num_buffers=4,
                        mode="flight", zero_ahead=zero_ahead,
                        clock=ManualClock())
    fac.enable_all()
    for i in range(n_events):
        fac.clock.advance(3)
        fac.log(i % 2, Major.TEST, 1, (i,))
    return fac


def test_dump_and_recover_recent_events():
    fac = crashed_facility()
    image = dump_bytes(fac.controls)
    dump = read_dump(image)
    assert dump.intact
    assert dump.ncpus == 2
    trace = TraceReader(registry=default_registry()).decode_records(
        dump.records
    )
    for cpu in (0, 1):
        values = [e.data[0] for e in trace.events(cpu)
                  if e.major == Major.TEST]
        assert values, f"cpu {cpu} lost its history"
        # The newest event logged to this CPU must be present.
        newest = max(i for i in range(700) if i % 2 == cpu)
        assert values[-1] == newest
        # And the recovered history is a contiguous suffix.
        assert values == list(range(values[0], 700, 2))


def assert_dump_matches_live_snapshot(fac):
    live = fac.snapshot()
    dumped = read_dump(dump_bytes(fac.controls)).records
    assert len(live) == len(dumped)
    live.sort(key=lambda r: (r.cpu, r.seq))
    for a, b in zip(live, dumped):
        assert (a.cpu, a.seq, a.committed, a.fill_words, a.partial) == \
            (b.cpu, b.seq, b.committed, b.fill_words, b.partial)
        assert np.array_equal(a.words, b.words)
    for records in (live, dumped):
        assert fac.decode(records).anomalies == []


def test_dump_matches_live_snapshot():
    """The dump tool reconstructs exactly what the live debugger hook
    (snapshot) would have printed, and both read intact buffers only."""
    assert_dump_matches_live_snapshot(crashed_facility())


@pytest.mark.parametrize("zero_ahead", [False, True])
@pytest.mark.parametrize("n_events", [295, 300, 700])
def test_dump_matches_live_snapshot_with_zero_ahead(n_events, zero_ahead):
    """With zero-ahead on, the slot booking zeroed is not emitted; at an
    exact boundary (295 and 300 events leave cpu 0 and cpu 1 on one,
    the next buffer not yet booked) the slot after it is."""
    fac = crashed_facility(n_events, zero_ahead)
    assert [c.cpu for c in fac.controls
            if c.index() % c.buffer_words == 0] == \
        {295: [0], 300: [1], 700: []}[n_events]
    assert_dump_matches_live_snapshot(fac)


def test_damaged_slot_sequence_is_reported_and_kept():
    """A slot whose occupant sequence maps to another slot is damage, not
    a never-booked phantom: the record is kept under the sequence as
    read, an issue names the cpu and the slot, and every other record is
    unchanged."""
    fac = crashed_facility()
    image = bytearray(dump_bytes(fac.controls))
    clean = read_dump(bytes(image))
    ctl = fac.controls[0]
    slot = 2
    seq = ctl.mem[ctl.slot_seq_at + slot]
    assert seq > 1
    # The cpu 0 section's slot_seq array follows the image and section
    # headers.  Two bit flips: the low one moves the sequence to another
    # slot, the high one away from every sequence the ring holds.
    bad = seq ^ (1 << 20 | 1)
    at = 16 + 32 + 8 * slot
    image[at:at + 8] = bad.to_bytes(8, "little")
    dump = read_dump(bytes(image))
    assert [(i.cpu, "slot 2" in i.detail) for i in dump.issues] == [(0, True)]
    assert len(dump.records) == len(clean.records)
    damaged = [r for r in dump.records if (r.cpu, r.seq) == (0, bad)]
    assert len(damaged) == 1
    assert np.array_equal(
        damaged[0].words,
        next(r.words for r in clean.records if (r.cpu, r.seq) == (0, seq)))
    intact = [(r.cpu, r.seq) for r in clean.records
              if (r.cpu, r.seq) != (0, seq)]
    assert intact == [(r.cpu, r.seq) for r in dump.records
                      if r is not damaged[0]]


def test_not_a_dump_rejected():
    with pytest.raises(ValueError):
        read_dump(b"definitely not a dump image, far too short? no.")
    with pytest.raises(ValueError):
        read_dump(b"X" * 100)


def test_truncated_header_rejected():
    with pytest.raises(ValueError):
        read_dump(b"K42CRASH")


def test_corrupted_section_reported_not_fatal():
    fac = crashed_facility(200)
    image = bytearray(dump_bytes(fac.controls))
    # Stomp the second CPU's section magic (find it after cpu0's data).
    ctl = fac.controls[0]
    sec0_size = 32 + ctl.num_buffers * 16 + ctl.total_words * 8
    offset = 16 + sec0_size
    image[offset:offset + 4] = b"\x00\x00\x00\x00"
    dump = read_dump(bytes(image))
    assert not dump.intact
    assert any("magic" in i.detail for i in dump.issues)
    # CPU 0 still recovered.
    assert any(r.cpu == 0 for r in dump.records)


def test_damaged_section_resync_recovers_later_cpus():
    """Damage in an early section must not take later CPUs with it: the
    reader scans forward for the next section magic and resumes."""
    fac = TraceFacility(ncpus=3, buffer_words=64, num_buffers=4,
                        mode="flight", clock=ManualClock())
    fac.enable_all()
    for i in range(300):
        fac.clock.advance(3)
        fac.log(i % 3, Major.TEST, 1, (i,))
    image = bytearray(dump_bytes(fac.controls))
    image[16:20] = b"\x00\x00\x00\x00"  # stomp cpu0's section magic
    dump = read_dump(bytes(image))
    assert not dump.intact
    assert any("resynchronized" in i.detail for i in dump.issues)
    recovered_cpus = {r.cpu for r in dump.records}
    assert 0 not in recovered_cpus
    assert {1, 2} <= recovered_cpus


def test_truncated_memory_reported():
    fac = crashed_facility(200)
    image = dump_bytes(fac.controls)
    dump = read_dump(image[: len(image) // 2])
    assert not dump.intact


def test_implausible_geometry_rejected_per_section():
    fac = crashed_facility(100)
    image = bytearray(dump_bytes(fac.controls))
    # buffer_words field of cpu0 section at offset 16+8.
    image[24:28] = (2**31).to_bytes(4, "little")
    dump = read_dump(bytes(image))
    assert not dump.intact
    assert any("implausible" in i.detail for i in dump.issues)


def oversized_section_image(fac):
    """``fac``'s dump, cpu 0's section declaring the largest geometry the
    bounds allow, padded to 1.5 MB: the section's slot arrays (1 MB)
    fit, its 2**45 bytes of trace memory do not."""
    image = bytearray(dump_bytes(fac.controls))
    image[24:28] = MAX_BUFFER_WORDS.to_bytes(4, "little")
    image[28:32] = MAX_NUM_BUFFERS.to_bytes(4, "little")
    return bytes(image + bytes((3 << 19) - len(image)))


def test_section_larger_than_the_image_rejected(tmp_path):
    """Geometry within the bounds can still declare far more bytes than
    the image holds: the section is refused before its bytes are asked
    for, and the reader resyncs to the next one."""
    path = tmp_path / "oversized.k42crash"
    path.write_bytes(oversized_section_image(crashed_facility(100)))
    with open(path, "rb") as fh:
        dump = read_dump(fh)
    assert [i.cpu for i in dump.issues] == [0, 0]
    assert dump.issues[0].detail.startswith("truncated dump: cpu section 0")
    assert "resynchronized" in dump.issues[1].detail
    assert {r.cpu for r in dump.records} == {1}


def test_writeout_mode_controls_also_dumpable():
    fac = TraceFacility(ncpus=1, buffer_words=64, num_buffers=4,
                        clock=ManualClock())
    fac.enable_all()
    for i in range(50):
        fac.clock.advance(2)
        fac.log(0, Major.TEST, 1, (i,))
    dump = read_dump(dump_bytes(fac.controls))
    assert dump.intact
    trace = TraceReader(registry=default_registry()).decode_records(
        dump.records
    )
    assert [e.data[0] for e in trace.events(0) if e.major == Major.TEST] \
        == list(range(50))


def test_file_roundtrip(tmp_path):
    fac = crashed_facility(300)
    path = tmp_path / "core.k42crash"
    with open(path, "wb") as fh:
        write_dump(fac.controls, fh)
    with open(path, "rb") as fh:
        dump = read_dump(fh)
    assert dump.intact and dump.records


#: sha256 of the dump image of a seeded contention run, as the
#: image was written before the lane store (three numpy conversions of
#: Python-level state per CPU).  Writing slices of the lane's words must
#: not move a byte.
CONTENTION_DUMP_SHA256 = (
    "cd73b44596cf290dc457f4c037deb49b75e445387420e5919003e870df74053c")


def test_dump_of_seeded_contention_run_is_byte_identical():
    import hashlib

    from repro.workloads import run_contention

    _kernel, fac, _ = run_contention(ncpus=2, workers_per_cpu=2,
                                     iterations=20, seed=7,
                                     buffer_words=256, num_buffers=8)
    image = dump_bytes(fac.controls)
    assert len(image) == 33104
    assert hashlib.sha256(image).hexdigest() == CONTENTION_DUMP_SHA256
