"""Unified facility tests: one infrastructure, many uses (§2 goals)."""

import numpy as np
import pytest

from repro.core.buffers import BufferRecord
from repro.core.crashdump import dump_bytes, read_dump
from repro.core.facility import TraceFacility
from repro.core.majors import ControlMinor, Major
from repro.core.timestamps import ManualClock
from repro.core.writer import load_records, save_records


def make(ncpus=2, **kw):
    kw.setdefault("buffer_words", 128)
    kw.setdefault("num_buffers", 4)
    kw.setdefault("clock", ManualClock())
    return TraceFacility(ncpus=ncpus, **kw)


def test_goal1_unified_events_from_all_sources():
    """Kernel, server, library, application events land in one stream."""
    fac = make()
    fac.enable_all()
    fac.log(0, Major.EXC, 0, (0xC0FFEE, 0x1000))          # kernel
    fac.log(0, Major.SYSCALL, 0, (1, 42))                  # emulation layer
    fac.log(1, Major.USER, 2, ())                          # application
    fac.log(1, Major.LOCK, 1, (0xAB, 1))                   # server lock path
    trace = fac.decode()
    majors = {e.major for e in trace.filter()}
    assert {Major.EXC, Major.SYSCALL, Major.USER, Major.LOCK} <= majors


def test_goal4_dynamic_enable_disable():
    fac = make()
    fac.log(0, Major.TEST, 1, (1,))  # mask off: dropped
    fac.enable(Major.TEST)
    fac.log(0, Major.TEST, 1, (2,))
    fac.disable(Major.TEST)
    fac.log(0, Major.TEST, 1, (3,))
    trace = fac.decode()
    data = [e.data[0] for e in trace.filter(major=Major.TEST)]
    assert data == [2]


def test_mask_changes_are_logged():
    fac = make()
    fac.enable(Major.TEST)
    trace = fac.decode()
    changes = trace.filter(
        major=Major.CONTROL, minor=ControlMinor.MASK_CHANGE, include_control=True
    )
    assert changes


def test_control_events_always_flow():
    fac = make()
    fac.disable_all()
    assert fac.mask.enabled(Major.CONTROL)


def test_per_cpu_streams_separate():
    fac = make(ncpus=3)
    fac.enable_all()
    clock = fac.clock
    for cpu in range(3):
        clock.advance(1)
        fac.log(cpu, Major.TEST, 1, (cpu,))
    trace = fac.decode()
    for cpu in range(3):
        evs = [e for e in trace.events(cpu) if e.major == Major.TEST]
        assert [e.data[0] for e in evs] == [cpu]


def test_log_event_by_name():
    fac = make()
    fac.enable_all()
    fac.log_event(0, "TRC_USER_RETURNED_MAIN", 17)
    trace = fac.decode()
    assert trace.filter(name="TRC_USER_RETURNED_MAIN")[0].values() == [17]


def test_null_kind_logs_nothing():
    fac = make(kind="null")
    fac.enable_all()
    assert fac.log(0, Major.TEST, 1, (1,)) is False
    assert fac.flush() == []
    assert fac.decode().all_events() == []


def test_locking_kind_produces_same_stream_shape():
    fac = make(kind="locking")
    fac.enable_all()
    for i in range(50):
        fac.clock.advance(1)
        fac.log(0, Major.TEST, 1, (i,))
    trace = fac.decode()
    assert len(trace.filter(major=Major.TEST)) == 50


def test_locking_shared_kind_single_control():
    fac = make(kind="locking-shared", ncpus=4)
    fac.enable_all()
    assert len(fac.controls) == 1
    for cpu in range(4):
        fac.log(cpu, Major.TEST, 1, (cpu,))
    trace = fac.decode()
    assert len(trace.filter(major=Major.TEST)) == 4


def test_stats_aggregate_across_cpus():
    fac = make(ncpus=2)
    fac.enable_all()
    fac.log(0, Major.TEST, 1, (1,))
    fac.log(1, Major.TEST, 1, (1,))
    stats = fac.stats()
    assert stats["events_logged"] >= 2
    assert "cas_retries" in stats


def test_flight_mode_snapshot():
    fac = make(mode="flight")
    fac.enable_all()
    for i in range(500):
        fac.clock.advance(1)
        fac.log(0, Major.TEST, 1, (i,))
    records = fac.snapshot()
    trace = fac.decode(records)
    evs = [e for e in trace.events(0) if e.major == Major.TEST]
    assert evs and evs[-1].data[0] == 499


def unwrapped_ring():
    """A flight-mode facility that has used three of its eight slots."""
    fac = make(ncpus=1, mode="flight", num_buffers=8)
    fac.enable_all()
    control = fac.controls[0]
    while control.index() < 2 * control.buffer_words + 10:
        fac.clock.advance(1)
        fac.log(0, Major.TEST, 1, (7,))
    return fac


def test_snapshot_of_unwrapped_ring_has_no_phantom_buffers():
    fac = unwrapped_ring()
    records = fac.snapshot()
    assert [r.seq for r in records] == [0, 1, 2]
    assert fac.decode(records).anomalies == []


def test_crash_dump_of_unwrapped_ring_has_no_phantom_buffers():
    fac = unwrapped_ring()
    records = read_dump(dump_bytes(fac.controls)).records
    assert [r.seq for r in records] == [0, 1, 2]
    assert fac.decode(records).anomalies == []


def test_trace_file_with_phantom_frames_decodes_to_the_same_events(
        tmp_path):
    """A file written when snapshots still emitted never-booked slots
    (as ``seq 0`` buffers of zero words) decodes to the same events; the
    phantom frames stay visible as garbled-buffer anomalies."""
    fac = unwrapped_ring()
    ctl = fac.controls[0]
    booked = fac.snapshot()
    phantoms = [
        BufferRecord(cpu=0, seq=0,
                     words=np.zeros(ctl.buffer_words, dtype=np.uint64),
                     committed=ctl.committed_count(0),
                     fill_words=ctl.buffer_words)
        for slot in range(len(booked), ctl.num_buffers)]
    old = sorted(booked + phantoms, key=lambda r: r.seq)
    old_path, new_path = tmp_path / "old.k42", tmp_path / "new.k42"
    save_records(str(old_path), old)
    save_records(str(new_path), booked)
    before = fac.decode(load_records(str(old_path)))
    after = fac.decode(load_records(str(new_path)))

    def rows(trace):
        return [(e.cpu, e.seq, e.offset, e.time, tuple(e.data))
                for e in trace.all_events()]

    assert rows(before) == rows(after) and rows(after)
    assert after.anomalies == []
    assert len(before.anomalies) == len(phantoms)
    assert {(a.seq, a.kind) for a in before.anomalies} == {(0, "garbled")}


def test_invalid_config_rejected():
    with pytest.raises(ValueError):
        TraceFacility(ncpus=0)
    with pytest.raises(ValueError):
        TraceFacility(kind="bogus")  # type: ignore[arg-type]
