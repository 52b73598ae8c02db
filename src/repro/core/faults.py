"""Deterministic fault injection for the corruption-tolerant read path.

The paper's §3.1 validity heuristics exist because real traces get
damaged: a writer is preempted or killed mid-event, a buffer is written
out before its tail is committed, a disk or network hop flips bits.
This module manufactures exactly those kinds of damage — deterministically,
from a seed — so tests, benchmarks, and the ``repro-trace inject``
subcommand can exercise the recovery machinery on demand instead of
waiting for a fault to happen in the wild.

Fault matrix
------------

In-memory record faults (:data:`RECORD_KINDS`, applied to decoded
:class:`~repro.core.buffers.BufferRecord` lists):

``header-bitflip``
    One random bit of one event-header word is flipped — transport or
    memory corruption.
``torn-event``
    A multi-word event is replaced by stale ring garbage, the state a
    preempted writer leaves when it reserved space but never finished
    writing (§3.1's "events in the midst of being logged").
``killed-writer``
    A buffer's committed count drops below its fill — the writer died
    between reserving and committing, so the tail is uncommitted.

File faults (:data:`FILE_KINDS`, applied to raw ``.k42`` trace bytes):

``frame-magic``
    One frame's magic number is stomped, severing file-level framing.
``frame-truncate``
    The file loses its tail mid-frame — a crashed copy or full disk.

Crash-dump faults (:data:`DUMP_KINDS`, applied to raw dump images):

``dump-section``
    One CPU section's magic is stomped, as a wild kernel store would.

Every injector returns an :class:`InjectionReport` describing what was
damaged.  Record-level faults are *verified detectable*: the injector
decodes the damaged records and retries with a different target (same
seed stream, so still deterministic) until the damage produces an
anomaly, falling back to an unambiguous overrun header if randomness
keeps producing benign corruption.  File- and dump-level faults are
structurally detectable by construction.
"""

from __future__ import annotations

import io
import random
import struct
from dataclasses import dataclass
from typing import List, Sequence, Tuple

import numpy as np

from repro.core.buffers import BufferRecord
from repro.core.constants import LENGTH_MASK
from repro.core.crashdump import _IMG_HEADER, _SEC_HEADER, DUMP_MAGIC
from repro.core.header import pack_header, unpack_header
from repro.core.majors import Major
from repro.core.columnar import decode_records_columnar
from repro.core.stream import scan_buffer
from repro.core.writer import FRAME_MAGIC, TraceFileReader

RECORD_KINDS = ("header-bitflip", "torn-event", "killed-writer")
FILE_KINDS = ("frame-magic", "frame-truncate")
DUMP_KINDS = ("dump-section",)
ALL_KINDS = RECORD_KINDS + FILE_KINDS + DUMP_KINDS

_FRAME_MAGIC_BYTES = struct.pack("<I", FRAME_MAGIC)
_MAX_ATTEMPTS = 16


@dataclass
class InjectionReport:
    """What a fault injection actually did."""

    kind: str
    seed: int
    target: str
    attempts: int = 1
    #: For record faults: verified to yield an anomaly when decoded.
    #: File/dump faults are detectable by construction.
    detectable: bool = True

    def describe(self) -> str:
        note = "" if self.detectable else " (NOT verified detectable)"
        return (f"injected {self.kind} (seed {self.seed}, "
                f"attempt {self.attempts}): {self.target}{note}")


def _copy_records(records: Sequence[BufferRecord]) -> List[BufferRecord]:
    return [
        BufferRecord(
            cpu=r.cpu, seq=r.seq, words=np.array(r.words, dtype=np.uint64),
            committed=r.committed, fill_words=r.fill_words, partial=r.partial,
        )
        for r in records
    ]


class FaultInjector:
    """Seedable source of trace corruption.

    One injector = one deterministic stream of faults: the same seed and
    the same call sequence always damage the same bytes.  Use a fresh
    injector per scenario when reproducibility of an individual fault
    matters.
    """

    def __init__(self, seed: int = 0) -> None:
        self.seed = seed
        self.rng = random.Random(seed)

    # ------------------------------------------------------------ records
    def inject_records(
        self, records: Sequence[BufferRecord], kind: str
    ) -> Tuple[List[BufferRecord], InjectionReport]:
        """Damage one buffer of ``records`` (copied, never in place).

        The damaged set is decoded to verify the fault is *detectable*
        (produces at least one new anomaly); benign outcomes — a bit
        flip that only changed a minor code, torn garbage that still
        parses — are retried with new targets from the same seed stream.
        """
        if kind not in RECORD_KINDS:
            raise ValueError(f"unknown record fault kind {kind!r}")
        candidates = [i for i, r in enumerate(records) if r.fill_words > 0]
        if not candidates:
            raise ValueError("no non-empty buffers to damage")
        baseline = self._anomaly_count(records)

        for attempt in range(1, _MAX_ATTEMPTS + 1):
            recs = _copy_records(records)
            rec = recs[self.rng.choice(candidates)]
            target = self._damage_record(rec, kind, force=False)
            if target is None:
                continue
            if self._anomaly_count(recs) > baseline:
                return recs, InjectionReport(kind, self.seed, target,
                                             attempts=attempt)

        # Randomness kept producing benign damage; force an unambiguous
        # fault at the chosen spot instead.
        recs = _copy_records(records)
        rec = recs[self.rng.choice(candidates)]
        target = self._damage_record(rec, kind, force=True)
        detectable = self._anomaly_count(recs) > baseline
        return recs, InjectionReport(kind, self.seed, target or "nothing",
                                     attempts=_MAX_ATTEMPTS + 1,
                                     detectable=detectable)

    def _damage_record(self, rec: BufferRecord, kind: str, force: bool):
        """Apply one record fault in place; returns a target description."""
        if kind == "killed-writer":
            drop = self.rng.randrange(1, rec.fill_words + 1)
            rec.partial = False
            rec.committed = rec.fill_words - drop
            return (f"cpu{rec.cpu} buf{rec.seq}: committed count dropped "
                    f"to {rec.committed} of {rec.fill_words} words")

        scan = scan_buffer(rec.words, rec.fill_words)
        if not scan.offsets:
            return None
        if kind == "header-bitflip":
            off = self.rng.choice(scan.offsets)
            if force:
                # Overrun header: length points past the end of the fill.
                length = rec.fill_words - off + 1
                word = (pack_header(0, length, int(Major.TEST), 0)
                        if length <= LENGTH_MASK else 0)
                rec.words[off] = np.uint64(word)
                return (f"cpu{rec.cpu} buf{rec.seq}+{off}: header replaced "
                        f"with overrun length")
            bit = self.rng.randrange(64)
            rec.words[off] = np.uint64(int(rec.words[off]) ^ (1 << bit))
            return f"cpu{rec.cpu} buf{rec.seq}+{off}: header bit {bit} flipped"

        # torn-event: stale ring contents where a multi-word event should be.
        multi = [o for o in scan.offsets if self._length_at(rec, o) >= 2]
        if not multi:
            return None
        off = self.rng.choice(multi)
        length = self._length_at(rec, off)
        if force:
            overrun = rec.fill_words - off + 1
            word = (pack_header(0, overrun, int(Major.TEST), 0)
                    if overrun <= LENGTH_MASK else 0)
            rec.words[off] = np.uint64(word)
            return (f"cpu{rec.cpu} buf{rec.seq}+{off}: torn event forced "
                    f"to overrun header")
        for i in range(off, off + length):
            rec.words[i] = np.uint64(self.rng.getrandbits(64))
        return (f"cpu{rec.cpu} buf{rec.seq}+{off}: {length}-word event "
                f"torn (stale ring garbage)")

    @staticmethod
    def _length_at(rec: BufferRecord, off: int) -> int:
        return unpack_header(int(rec.words[off])).length

    @staticmethod
    def _anomaly_count(records: Sequence[BufferRecord]) -> int:
        return len(decode_records_columnar(records).anomaly_columns)

    # --------------------------------------------------------------- file
    def inject_trace_bytes(
        self, data: bytes, kind: str
    ) -> Tuple[bytes, InjectionReport]:
        """Damage the raw bytes of a ``.k42`` trace file."""
        if kind not in FILE_KINDS:
            raise ValueError(f"unknown file fault kind {kind!r}")
        reader = TraceFileReader(io.BytesIO(data))
        n = reader.frame_count()
        if n == 0:
            raise ValueError("trace file has no frames to damage")
        header_size = reader._data_start
        if kind == "frame-truncate":
            cut = self.rng.randrange(1, reader.frame_size)
            return data[:-cut], InjectionReport(
                kind, self.seed,
                f"final {cut} bytes chopped (mid-frame truncation)")
        k = self.rng.randrange(n)
        off = header_size + k * reader.frame_size
        stomp = bytes(self.rng.randrange(256) for _ in range(4))
        if stomp == _FRAME_MAGIC_BYTES:
            stomp = b"\x00\x00\x00\x00"
        out = data[:off] + stomp + data[off + 4:]
        return out, InjectionReport(
            kind, self.seed, f"frame {k} magic stomped at byte {off}")

    # --------------------------------------------------------------- dump
    def inject_dump_bytes(
        self, data: bytes, kind: str
    ) -> Tuple[bytes, InjectionReport]:
        """Damage the raw bytes of a crash-dump image."""
        if kind not in DUMP_KINDS:
            raise ValueError(f"unknown dump fault kind {kind!r}")
        magic, _version, ncpus = _IMG_HEADER.unpack_from(data, 0)
        if magic != DUMP_MAGIC or ncpus == 0:
            raise ValueError("not a crash dump image (or no sections)")
        offsets = []
        pos = _IMG_HEADER.size
        for _ in range(ncpus):
            offsets.append(pos)
            (_magic, _cpu, buffer_words, num_buffers,
             _idx, _booked) = _SEC_HEADER.unpack_from(data, pos)
            pos += (_SEC_HEADER.size + num_buffers * 16
                    + buffer_words * num_buffers * 8)
        section = self.rng.randrange(len(offsets))
        off = offsets[section]
        out = data[:off] + b"\x00\x00\x00\x00" + data[off + 4:]
        return out, InjectionReport(
            kind, self.seed,
            f"cpu section {section} magic stomped at byte {off}")
