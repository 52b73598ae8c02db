"""Crash-dump extraction of the trace log (§4.2's named future work).

"If the kernel is not stable enough to call this function, a crash dump
tool can access the trace log providing similar functionality.  We have
not implemented the crash dump tool yet."  — implemented here.

The premise: after a crash, all that exists is a memory image.  This
module defines the layout of the tracing state inside such an image —
per-CPU control metadata (reservation index, ring geometry, slot
occupancy, committed counts) followed by the raw trace memory — plus a
reader that reconstructs flight-recorder records from the image alone,
with no live objects.  The reader validates everything it touches, since
a crash may have corrupted any of it, and degrades to whatever buffers
still make sense.

Layout (little-endian)::

    image  : magic "K42CRASH" | version u32 | ncpus u32 | cpu-section*
    section: magic u32 | cpu u32 | buffer_words u32 | num_buffers u32
           | index u64 | booked_seq u64
           | slot_seq[num_buffers] u64 | committed[num_buffers] u64
           | trace memory (buffer_words * num_buffers * u64)
"""

from __future__ import annotations

import io
import struct
from dataclasses import dataclass, field
from operator import attrgetter
from typing import BinaryIO, List, Union

from repro.core.buffers import BufferRecord, LaneAt, TraceControl, read_lane
from repro.core.lane import cast_words
from repro.core.writer import scan_for_magic

DUMP_MAGIC = b"K42CRASH"
DUMP_VERSION = 1
SECTION_MAGIC = 0xC4A5_4DED

_IMG_HEADER = struct.Struct("<8sII")
_SEC_HEADER = struct.Struct("<IIIIQQ")
_SECTION_MAGIC_BYTES = struct.pack("<I", SECTION_MAGIC)

#: Upper bound accepted for ring geometry when parsing an untrusted dump.
MAX_BUFFER_WORDS = 1 << 26
MAX_NUM_BUFFERS = 1 << 16


@dataclass
class DumpIssue:
    """A problem found while parsing a (possibly corrupted) dump."""

    cpu: int
    detail: str


@dataclass
class CrashDump:
    """Parsed dump: reconstructed records plus parse diagnostics."""

    records: List[BufferRecord] = field(default_factory=list)
    issues: List[DumpIssue] = field(default_factory=list)
    ncpus: int = 0

    @property
    def intact(self) -> bool:
        return not self.issues


def write_dump(controls: List[TraceControl], fh: BinaryIO) -> None:
    """Serialize the tracing state as a crash-style memory image.

    In a real system this is the job of the dump mechanism (kdump etc.);
    here it stands in for "the machine's memory was saved".
    """
    fh.write(_IMG_HEADER.pack(DUMP_MAGIC, DUMP_VERSION, len(controls)))
    for ctl in controls:
        mem = ctl.mem
        fh.write(
            _SEC_HEADER.pack(
                SECTION_MAGIC, ctl.cpu, ctl.buffer_words, ctl.num_buffers,
                mem[ctl.index_at], mem[ctl.booked_at],
            )
        )
        # The lane's words are the image's words: little-endian u64 on
        # the only hosts a lane store exists on.
        nb = ctl.num_buffers
        fh.write(mem[ctl.slot_seq_at:ctl.slot_seq_at + nb])
        fh.write(mem[ctl.committed_at:ctl.committed_at + nb])
        fh.write(mem[ctl.trace_at:ctl.trace_at + ctl.total_words])


def dump_bytes(controls: List[TraceControl]) -> bytes:
    buf = io.BytesIO()
    write_dump(controls, buf)
    return buf.getvalue()


def _read_exact(fh: BinaryIO, n: int, what: str) -> bytes:
    raw = fh.read(n)
    if len(raw) != n:
        raise EOFError(f"truncated dump while reading {what}")
    return raw


def read_dump(source: Union[bytes, BinaryIO]) -> CrashDump:
    """Reconstruct flight-recorder records from a memory image.

    Reads each CPU section with :func:`~repro.core.buffers.read_lane`,
    the reader behind :meth:`TraceControl.snapshot`, so a dump yields
    what a snapshot taken at the crash would have.  It survives
    corruption: a damaged CPU section is reported as an issue, the
    reader scans forward for the next section magic and resumes there,
    and geometry fields — and the bytes a section declares against the
    bytes the image still holds — are checked before use.  Only when no
    later section magic exists does parsing stop early.  A slot whose
    occupant sequence maps to another slot is kept and reported as an
    issue.
    """
    fh = io.BytesIO(source) if isinstance(source, (bytes, bytearray)) else source
    header = fh.read(_IMG_HEADER.size)
    if len(header) != _IMG_HEADER.size:
        raise ValueError("not a crash dump: truncated header")
    magic, version, ncpus = _IMG_HEADER.unpack(header)
    if magic != DUMP_MAGIC:
        raise ValueError(f"not a crash dump: bad magic {magic!r}")
    if version != DUMP_VERSION:
        raise ValueError(f"unsupported crash dump version {version}")

    dump = CrashDump(ncpus=ncpus)
    pos = fh.tell()
    end = fh.seek(0, io.SEEK_END)
    parsed = 0
    while parsed < ncpus:
        fh.seek(pos)
        try:
            raw = _read_exact(fh, _SEC_HEADER.size, f"cpu section {parsed}")
            (sec_magic, cpu, buffer_words, num_buffers,
             _index, _booked) = _SEC_HEADER.unpack(raw)
            if sec_magic != SECTION_MAGIC:
                raise ValueError(f"bad section magic {sec_magic:#x}")
            if not (0 < buffer_words <= MAX_BUFFER_WORDS):
                raise ValueError(f"implausible buffer_words {buffer_words}")
            if not (0 < num_buffers <= MAX_NUM_BUFFERS):
                raise ValueError(f"implausible num_buffers {num_buffers}")
            # Plausible fields can still declare more than the image
            # holds: check before asking for the bytes.
            body = 8 * num_buffers * (2 + buffer_words)
            left = end - pos - _SEC_HEADER.size
            if body > left:
                raise EOFError(
                    f"truncated dump: cpu section {parsed} declares "
                    f"{body} bytes past its header, {left} left")
            section = bytearray(raw)
            section += fh.read(body)
        except (ValueError, EOFError) as exc:
            dump.issues.append(DumpIssue(parsed, str(exc)))
            # Framing is lost at this point, but sections carry their
            # own magic: scan forward for the next one and resume there
            # — the dump-level counterpart of the decoder's in-buffer
            # resynchronization.
            nxt = scan_for_magic(fh, _SECTION_MAGIC_BYTES, pos + 1)
            if nxt is None:
                break  # no later section magic; the rest is rubble
            dump.issues.append(
                DumpIssue(
                    parsed,
                    f"resynchronized at byte {nxt}: "
                    f"skipped {nxt - pos} bytes",
                )
            )
            parsed += 1
            pos = nxt
            continue
        parsed += 1
        pos = fh.tell()

        # The section is a lane view: its header's index and booked
        # sequence are words 2 and 3, then slot_seq, committed, memory.
        words = cast_words(section)
        slot_seq = _SEC_HEADER.size // 8
        at = LaneAt(index=2, booked=3, committed=slot_seq + num_buffers,
                    slot_seq=slot_seq, trace=slot_seq + 2 * num_buffers)
        for slot in range(num_buffers):
            seq = words[slot_seq + slot]
            if seq and seq % num_buffers != slot:
                # A booked occupant always maps to its own slot, so this
                # sequence word was damaged.  The words may still hold
                # events: the reader keeps them, under the sequence as
                # read.
                dump.issues.append(DumpIssue(
                    cpu, f"cpu {cpu} slot {slot}: occupant sequence {seq} "
                         f"belongs in slot {seq % num_buffers}; kept as "
                         f"read"))
        dump.records.extend(read_lane(words, at, buffer_words, num_buffers,
                                      cpu))
    dump.records.sort(key=attrgetter("cpu", "seq"))
    return dump
