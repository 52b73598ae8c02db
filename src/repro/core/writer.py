"""Serializing trace buffers: "written out to disk, or streamed over the
network" (§1).

The on-disk format keeps the alignment property at file scale: every
frame has the same size (frame header + ``buffer_words`` 64-bit words),
so frame *k* lives at a computable offset and a reader can fetch any
buffer of a multi-gigabyte trace without scanning — the file-level
counterpart of §3.2's random access.

Layout (all little-endian)::

    file header : magic "K42TRACE" | version u32 | buffer_words u32
    frame       : magic u32 | cpu u32 | seq u64 | committed u64
                | fill_words u32 | partial u8 | pad[3]
                | buffer_words * u64 payload

Reading is corruption-tolerant by default: a frame whose header is
damaged (bad magic, implausible geometry) is skipped by scanning forward
for the next frame magic — the file-level counterpart of the decoder's
in-buffer resynchronization — and the skip is reported on
:attr:`TraceFileReader.issues`.  ``strict=True`` restores the
raise-on-first-damage behavior.

Reading is also zero-copy where the file allows it: one frame walk runs
over a bytes-like image of the file — the ``mmap`` when the file maps
(record words are then read-only ``np.frombuffer`` views of the page
cache; payloads are 8-byte aligned by construction), otherwise one
``read()`` of it (in-memory streams, a file that grew past its mapping).
The choice is made from what the file object can do, never by the
caller, and the output — frames, issue reports, tail verdicts — does
not depend on it.
"""

from __future__ import annotations

import io
import mmap
import os
import struct
import sys
from typing import BinaryIO, Iterable, List, Optional, Tuple, Union

import numpy as np

from repro.core.buffers import BufferRecord

FILE_MAGIC = b"K42TRACE"
FILE_VERSION = 1
FRAME_MAGIC = 0x4B42BEEF

_FILE_HEADER = struct.Struct("<8sII")
_FRAME_HEADER = struct.Struct("<IIQQIB3x")
_FRAME_MAGIC_BYTES = struct.pack("<I", FRAME_MAGIC)

_LITTLE_ENDIAN = sys.byteorder == "little"

PathOrFile = Union[str, BinaryIO]


def scan_for_magic(fh: BinaryIO, token: bytes, start: int,
                   chunk: int = 1 << 16) -> Optional[int]:
    """Find the next occurrence of ``token`` at or after byte ``start``.

    Streams the file in chunks (with overlap, so a token straddling a
    chunk boundary is still found); returns the absolute byte offset of
    the first occurrence, or ``None``.  This is the resynchronization
    primitive shared by the trace-file and crash-dump readers.
    """
    fh.seek(start)
    base = start
    tail = b""
    overlap = len(token) - 1
    while True:
        block = fh.read(chunk)
        if not block:
            return None
        hay = tail + block
        i = hay.find(token)
        if i >= 0:
            return base - len(tail) + i
        tail = hay[-overlap:] if overlap else b""
        base += len(block)


def classify_tail(raw: bytes, buffer_words: int) -> str:
    """Judge a partial trailing frame from its visible bytes.

    A frame is written header first, payload second, so visible bytes
    that are a prefix of a well-formed frame — the magic matches as far
    as it goes and, once the whole header is there, the geometry is
    plausible — are exactly what a mid-write frame looks like
    (``"growing"``).  Anything else can never grow into a valid frame,
    so it is damage (``"truncated"``).
    """
    k = min(len(raw), len(_FRAME_MAGIC_BYTES))
    if raw[:k] != _FRAME_MAGIC_BYTES[:k]:
        return "truncated"
    if len(raw) < _FRAME_HEADER.size:
        return "growing"   # the header itself is still being written
    _magic, _cpu, _seq, _committed, fill_words, partial = \
        _FRAME_HEADER.unpack(raw[:_FRAME_HEADER.size])
    if fill_words <= buffer_words and partial <= 1:
        return "growing"
    return "truncated"


class TraceFileWriter:
    """Streams :class:`BufferRecord` frames into a binary trace file."""

    def __init__(self, fh: BinaryIO, buffer_words: int) -> None:
        self.fh = fh
        self.buffer_words = buffer_words
        self.frames_written = 0
        fh.write(_FILE_HEADER.pack(FILE_MAGIC, FILE_VERSION, buffer_words))

    def write_record(self, rec: BufferRecord) -> None:
        if len(rec.words) != self.buffer_words:
            raise ValueError(
                f"record has {len(rec.words)} words, file expects {self.buffer_words}"
            )
        self.fh.write(
            _FRAME_HEADER.pack(
                FRAME_MAGIC, rec.cpu, rec.seq, rec.committed,
                rec.fill_words, 1 if rec.partial else 0,
            )
        )
        self.fh.write(np.asarray(rec.words, dtype="<u8").tobytes())
        self.frames_written += 1

    def write_all(self, records: Iterable[BufferRecord]) -> None:
        for rec in records:
            self.write_record(rec)


class TraceFileReader:
    """Reads trace files; supports sequential and per-frame random access.

    ``strict=False`` (the default) makes :meth:`read_all` skip damaged
    frames — a stomped frame magic, an implausible frame header — by
    scanning forward for the next frame magic, and truncated trailing
    bytes are dropped; every skip is described on :attr:`issues`.
    ``strict=True`` raises ``ValueError``/``EOFError`` at the first
    damage, as the original reader did.  The file *header* is always
    validated strictly — without it there is no geometry to resync with.

    A trailing partial frame is not automatically damage: a trace that
    is still being written ends mid-frame most of the time.  The tail
    verdict (:attr:`tail_state`) distinguishes the two cases — a partial
    trailing frame whose visible prefix is a well-formed frame header is
    ``"growing"`` (an in-progress write; not reported on :attr:`issues`),
    anything else is ``"truncated"`` (real damage).  ``doctor``/
    ``anomaly`` report salvage only for the truncated verdict.
    """

    def __init__(self, fh: BinaryIO, strict: bool = False) -> None:
        self.fh = fh
        self.strict = strict
        #: Human-readable descriptions of damage seen (and survived).
        self.issues: List[str] = []
        #: Bytes beyond the last whole frame (0 for a well-formed file).
        self.trailing_bytes = 0
        #: Verdict on the trailing bytes: "complete" (none), "growing"
        #: (a well-formed frame header prefix — an in-progress write),
        #: or "truncated" (damage).
        self.tail_state = "complete"
        header = fh.read(_FILE_HEADER.size)
        if len(header) != _FILE_HEADER.size:
            raise ValueError("truncated trace file header")
        magic, version, buffer_words = _FILE_HEADER.unpack(header)
        if magic != FILE_MAGIC:
            raise ValueError(f"bad trace file magic {magic!r}")
        if version != FILE_VERSION:
            raise ValueError(f"unsupported trace file version {version}")
        self.buffer_words = buffer_words
        self.frame_size = _FRAME_HEADER.size + buffer_words * 8
        self._data_start = _FILE_HEADER.size
        self._mm: Optional[mmap.mmap] = None
        self._file_sig: Optional[Tuple[str, int, int]] = None
        #: Which image :meth:`read_all` walks: ``"mmap"`` (zero-copy
        #: page-cache views) or ``"read"`` (one buffered read).
        self.read_path = "read"
        self._try_mmap()

    def _try_mmap(self) -> None:
        """Map the file read-only; silently keep the read() path if not.

        Sockets and in-memory streams have no mappable ``fileno``; an
        empty or unmappable file raises — all of those simply stay on
        the buffered path.  Frame payloads start at byte ``16 + 32 +
        k*frame_size``, always 8-byte aligned, so word views over the
        mapping are alignment-safe.
        """
        try:
            fileno = self.fh.fileno()
            mm = mmap.mmap(fileno, 0, access=mmap.ACCESS_READ)
        except (OSError, ValueError, AttributeError):
            return
        self._mm = mm
        self.read_path = "mmap"
        name = getattr(self.fh, "name", None)
        if isinstance(name, str) and os.path.exists(name):
            st = os.fstat(fileno)
            self._file_sig = (os.path.abspath(name), st.st_size,
                              st.st_mtime_ns)

    def frame_count(self) -> int:
        """Number of whole frames; judges any partial trailing frame.

        A partial tail that is a well-formed frame prefix is flagged
        ``"growing"`` (and kept off :attr:`issues` — the file is most
        likely mid-write); anything else is ``"truncated"`` damage.
        """
        self.fh.seek(0, io.SEEK_END)
        end = self.fh.tell()
        n, trailing = divmod(end - self._data_start, self.frame_size)
        if trailing and not self.trailing_bytes:
            self.trailing_bytes = trailing
            self.tail_state = self._classify_tail(end - trailing, trailing)
            if self.tail_state == "truncated":
                self.issues.append(
                    f"truncated trailing frame: {trailing} bytes after "
                    f"the last whole frame"
                )
        return n

    def _classify_tail(self, start: int, trailing: int) -> str:
        """Judge a partial trailing frame — see :func:`classify_tail`."""
        self.fh.seek(start)
        raw = self.fh.read(min(trailing, _FRAME_HEADER.size))
        return classify_tail(raw, self.buffer_words)

    def read_frame(self, k: int) -> BufferRecord:
        """Random access to frame ``k`` — a seek, not a scan."""
        n = self.frame_count()
        if not 0 <= k < n:
            raise IndexError(f"frame {k} out of range: file holds {n} frames")
        pos = self._data_start + k * self.frame_size
        # A mapping snapshots the file at open time; frames appended
        # since (a growing trace) are read from the file.
        if self._mm is not None and pos + self.frame_size <= len(self._mm):
            return self._parse_frame(self._mm, pos)
        self.fh.seek(pos)
        return self._parse_frame(self.fh.read(self.frame_size), 0)

    def _parse_frame(self, buf, pos: int) -> BufferRecord:
        """The frame at byte ``pos`` of the bytes-like ``buf``.

        Raises ``EOFError`` when ``buf`` ends inside the frame and
        ``ValueError`` when the frame header is damaged.  Record words
        are a read-only view of ``buf``; a view of the file mapping is
        also stamped with its on-disk location ``(path, byte_offset,
        file_size, file_mtime_ns)``, which lets the parallel decoder
        ship a tiny descriptor to pool workers — which map the same
        file themselves — instead of pushing the payload through a
        pipe.  The size/mtime pair lets the consumer detect a rewritten
        file and fall back to shipping bytes.
        """
        avail = len(buf) - pos
        if avail < _FRAME_HEADER.size:
            raise EOFError("truncated frame header")
        magic, cpu, seq, committed, fill_words, partial = \
            _FRAME_HEADER.unpack_from(buf, pos)
        if magic != FRAME_MAGIC:
            raise ValueError(f"bad frame magic {magic:#x}")
        if fill_words > self.buffer_words or partial > 1:
            raise ValueError(
                f"implausible frame header "
                f"(fill_words {fill_words}, partial {partial})"
            )
        if avail < self.frame_size:
            raise EOFError("truncated frame payload")
        off = pos + _FRAME_HEADER.size
        words = np.frombuffer(buf, dtype="<u8", count=self.buffer_words,
                              offset=off)
        if not _LITTLE_ENDIAN:  # pragma: no cover - big-endian fallback
            words = words.astype(np.uint64)
        rec = BufferRecord(
            cpu=cpu, seq=seq, words=words, committed=committed,
            fill_words=fill_words, partial=bool(partial),
        )
        if buf is self._mm and self._file_sig is not None and _LITTLE_ENDIAN:
            path, size, mtime_ns = self._file_sig
            rec._file_ref = (path, off, size, mtime_ns)
        return rec

    def read_all(self) -> List[BufferRecord]:
        """Read every readable frame, resynchronizing past damage."""
        self.frame_count()   # flag a truncated tail up front
        buf = self._mm
        self.fh.seek(0, io.SEEK_END)
        if buf is None or self.fh.tell() > len(buf):
            self.read_path = "read"
            self.fh.seek(0)
            buf = self.fh.read()
        end = len(buf)
        records: List[BufferRecord] = []
        pos = self._data_start
        while pos < end:
            try:
                records.append(self._parse_frame(buf, pos))
            except EOFError as exc:
                if self.strict:
                    raise
                if not self.trailing_bytes:
                    self.issues.append(f"{exc} at byte {pos}; dropped")
                break
            except ValueError:
                if self.strict:
                    raise
                nxt = buf.find(_FRAME_MAGIC_BYTES, pos + 1)
                if nxt < 0:
                    self.issues.append(
                        f"damaged frame at byte {pos}; no later frame "
                        f"magic — {end - pos} bytes dropped"
                    )
                    break
                self.issues.append(
                    f"damaged frame at byte {pos}; skipped {nxt - pos} "
                    f"bytes to the next frame magic"
                )
                pos = nxt
            else:
                pos += self.frame_size
        return records


def save_records(path: PathOrFile, records: List[BufferRecord],
                 buffer_words: Optional[int] = None) -> int:
    """Write records to ``path``; returns the number of frames written.

    An empty record list is a valid (if quiet) trace, but its geometry
    cannot be inferred — pass ``buffer_words`` explicitly to write a
    header-only file that ``load_records`` round-trips to ``[]``.
    """
    if not records and buffer_words is None:
        raise ValueError(
            "no records to save; pass buffer_words= to write an empty trace"
        )
    if buffer_words is None:
        buffer_words = len(records[0].words)

    def _write(fh: BinaryIO) -> int:
        w = TraceFileWriter(fh, buffer_words)
        w.write_all(records)
        return w.frames_written

    if isinstance(path, str):
        with open(path, "wb") as fh:
            return _write(fh)
    return _write(path)


def load_records(path: PathOrFile, strict: bool = False
                 ) -> List[BufferRecord]:
    """Read every readable frame of a trace file.

    With the default ``strict=False``, damaged frames are skipped (see
    :class:`TraceFileReader`); use :class:`TraceFileReader` directly
    when the skip reports are needed.  Record words are read-only views
    — of the page cache when the file maps — so copy before mutating.
    A refusal (``ValueError``/``EOFError``) of a file given by path
    names that path, so a caller reading several knows which one.
    """
    if isinstance(path, str):
        with open(path, "rb") as fh:
            try:
                return TraceFileReader(fh, strict=strict).read_all()
            except (ValueError, EOFError) as exc:
                raise type(exc)(f"{path}: {exc}") from None
    return TraceFileReader(path, strict=strict).read_all()
