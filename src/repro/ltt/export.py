"""Exporting K42 traces to an LTT-style stream (§5's named future work).

"An immediate area of future work is converting the output stream
produced by K42's trace facility so that it can be read by LTT's visual
display toolkit."

This module implements that converter against a documented LTT-like
binary format (the real 2003 LTT format is tied to in-kernel struct
layouts; this one keeps its essential structure: a start-time header,
dense one-byte event ids from LTT's core vocabulary, microsecond delta
timestamps, and per-event binary payloads).  A reader is included so the
conversion is verifiable end-to-end, and unknown K42 events are carried
through as LTT "custom" events rather than dropped.

Format (little-endian)::

    file  : magic "LTTK42X\\0" | version u32 | start_cycles u64 | cpu u32
    event : ltt_id u8 | delta_us u32 | size u16 | payload[size]

Delta timestamps are relative to the previous event (LTT's tsc-delta
scheme); an OVERFLOW pseudo-event re-anchors when a delta exceeds 32
bits.
"""

from __future__ import annotations

import io
import struct
from dataclasses import dataclass
from typing import BinaryIO, List, Tuple, Union

from repro.core.majors import ExcMinor, Major, ProcMinor, SyscallMinor
from repro.core.stream import Trace, TraceEvent

FILE_MAGIC = b"LTTK42X\x00"
FILE_VERSION = 1

_FILE_HEADER = struct.Struct("<8sIQI")
_EVENT_HEADER = struct.Struct("<BIH")

# LTT core event ids (the classic trace_event_id vocabulary).
LTT_SYSCALL_ENTRY = 1
LTT_SYSCALL_EXIT = 2
LTT_TRAP_ENTRY = 3
LTT_TRAP_EXIT = 4
LTT_IRQ_ENTRY = 5
LTT_IRQ_EXIT = 6
LTT_SCHEDCHANGE = 7
LTT_PROCESS = 10          # fork / exit
LTT_FILE_SYSTEM = 11      # open / read / write / close
LTT_TIMER = 12
LTT_MEMORY = 13
LTT_CUSTOM = 60           # pass-through for K42-specific events
LTT_OVERFLOW = 255        # delta re-anchor pseudo-event

LTT_EVENT_NAMES = {
    LTT_SYSCALL_ENTRY: "syscall_entry",
    LTT_SYSCALL_EXIT: "syscall_exit",
    LTT_TRAP_ENTRY: "trap_entry",
    LTT_TRAP_EXIT: "trap_exit",
    LTT_IRQ_ENTRY: "irq_entry",
    LTT_IRQ_EXIT: "irq_exit",
    LTT_SCHEDCHANGE: "schedchange",
    LTT_PROCESS: "process",
    LTT_FILE_SYSTEM: "file_system",
    LTT_TIMER: "timer",
    LTT_MEMORY: "memory",
    LTT_CUSTOM: "custom",
    LTT_OVERFLOW: "overflow",
}

CYCLES_PER_US = 1_000


@dataclass
class LttEvent:
    """One event of the exported stream (as the reader returns it)."""

    ltt_id: int
    time_us: int
    payload: bytes

    @property
    def name(self) -> str:
        return LTT_EVENT_NAMES.get(self.ltt_id, f"id{self.ltt_id}")


def _map_event(e: TraceEvent) -> Tuple[int, bytes]:
    """K42 event -> (LTT id, payload)."""
    d = e.data
    if e.major == Major.SYSCALL:
        if e.minor == SyscallMinor.ENTER and len(d) >= 2:
            return LTT_SYSCALL_ENTRY, struct.pack("<QQ", d[0], d[1])
        if e.minor == SyscallMinor.EXIT and len(d) >= 2:
            return LTT_SYSCALL_EXIT, struct.pack("<QQ", d[0], d[1])
    elif e.major == Major.EXC:
        if e.minor == ExcMinor.PGFLT and len(d) >= 2:
            return LTT_TRAP_ENTRY, struct.pack("<QQ", d[0], d[1])
        if e.minor == ExcMinor.PGFLT_DONE and len(d) >= 2:
            return LTT_TRAP_EXIT, struct.pack("<QQ", d[0], d[1])
        if e.minor == ExcMinor.TIMER_INTERRUPT:
            return LTT_TIMER, struct.pack("<Q", d[0] if d else 0)
        if e.minor == ExcMinor.IO_INTERRUPT:
            return LTT_IRQ_ENTRY, struct.pack("<Q", d[0] if d else 0)
    elif e.major == Major.PROC:
        if e.minor == ProcMinor.CONTEXT_SWITCH and len(d) >= 2:
            return LTT_SCHEDCHANGE, struct.pack("<QQ", d[0], d[1])
        if e.minor in (ProcMinor.CREATE, ProcMinor.EXIT):
            sub = 0 if e.minor == ProcMinor.CREATE else 1
            pid = d[0] if d else 0
            return LTT_PROCESS, struct.pack("<BQ", sub, pid)
    elif e.major == Major.IO and e.minor <= 0xFF:
        sub = int(e.minor)
        pid = d[0] if d else 0
        return LTT_FILE_SYSTEM, struct.pack("<BQ", sub, pid)
    elif e.major == Major.MEM and e.minor <= 0xFF:
        return LTT_MEMORY, struct.pack(
            "<B", int(e.minor)
        ) + b"".join(struct.pack("<Q", w) for w in d[:2])
    # Everything else rides through as a custom event carrying the
    # original (major, minor) and data words — nothing is dropped.  So
    # does an I/O or memory minor too wide for LTT's one-byte sub-id.
    payload = struct.pack("<BH", e.major, e.minor)
    payload += b"".join(struct.pack("<Q", w) for w in d[:7])
    return LTT_CUSTOM, payload


def export_ltt(
    trace: Trace,
    cpu: int,
    fh: BinaryIO,
    include_control: bool = False,
) -> int:
    """Convert one CPU's stream to the LTT-style format.

    Returns the number of events written.  (LTT keeps one file per CPU,
    as K42 keeps one buffer ring per CPU.)  A delta cannot be negative,
    so a stream whose time steps backwards — which only damage the
    reader resynchronized past produces — raises :class:`ValueError`
    naming the event, before anything is written; events are never
    reordered or dropped to make it fit.
    """
    events = [e for e in trace.events(cpu)
              if (include_control or not e.is_control) and e.time is not None]
    for prev, e in zip(events, events[1:]):
        if e.time // CYCLES_PER_US < prev.time // CYCLES_PER_US:
            raise ValueError(
                f"cpu {cpu} seq {e.seq} offset {e.offset}: time steps back "
                f"from {prev.time} to {e.time} cycles, which an LTT delta "
                f"cannot encode")
    start = events[0].time if events else 0
    fh.write(_FILE_HEADER.pack(FILE_MAGIC, FILE_VERSION, start, cpu))
    prev_us = start // CYCLES_PER_US
    written = 0
    for e in events:
        now_us = e.time // CYCLES_PER_US
        delta = now_us - prev_us
        while delta > 0xFFFF_FFFF:
            fh.write(_EVENT_HEADER.pack(LTT_OVERFLOW, 0xFFFF_FFFF, 0))
            delta -= 0xFFFF_FFFF
            written += 1
        ltt_id, payload = _map_event(e)
        fh.write(_EVENT_HEADER.pack(ltt_id, delta, len(payload)))
        fh.write(payload)
        prev_us = now_us
        written += 1
    return written


def export_ltt_bytes(trace: Trace, cpu: int, **kw) -> bytes:
    buf = io.BytesIO()
    export_ltt(trace, cpu, buf, **kw)
    return buf.getvalue()


def read_ltt(source: Union[bytes, BinaryIO]) -> Tuple[int, List[LttEvent]]:
    """Parse an exported stream; returns (cpu, events with absolute µs)."""
    fh = io.BytesIO(source) if isinstance(source, (bytes, bytearray)) else source
    header = fh.read(_FILE_HEADER.size)
    if len(header) != _FILE_HEADER.size:
        raise ValueError("truncated LTT header")
    magic, version, start_cycles, cpu = _FILE_HEADER.unpack(header)
    if magic != FILE_MAGIC:
        raise ValueError(f"bad LTT magic {magic!r}")
    if version != FILE_VERSION:
        raise ValueError(f"unsupported LTT version {version}")
    events: List[LttEvent] = []
    now_us = start_cycles // CYCLES_PER_US
    pending_overflow = 0
    while True:
        raw = fh.read(_EVENT_HEADER.size)
        if not raw:
            break
        if len(raw) != _EVENT_HEADER.size:
            raise ValueError("truncated LTT event header")
        ltt_id, delta, size = _EVENT_HEADER.unpack(raw)
        payload = fh.read(size)
        if len(payload) != size:
            raise ValueError("truncated LTT event payload")
        if ltt_id == LTT_OVERFLOW:
            pending_overflow += delta
            continue
        now_us += delta + pending_overflow
        pending_overflow = 0
        events.append(LttEvent(ltt_id, now_us, payload))
    return cpu, events
