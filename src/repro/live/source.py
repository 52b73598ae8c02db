"""Record sources for live monitoring.

Every source speaks the same protocol:

``poll() -> List[BufferRecord]``
    whatever became available since the last poll (possibly nothing);
``done`` (property)
    the producer has declared it will produce no more;
``finish() -> List[BufferRecord]``
    the final sweep once the producer has stopped — tail judgement for
    files, the forced finalize for shared memory, the remainder for
    replays.

The monitor never cares which concrete source it is polling, so a
recorded trace replayed through :class:`Replayer` exercises exactly the
live pipeline — the queue-fed replayer idea: replay is just another
event source, and speed (instant / realtime / Nx) is a property of the
source, not of the analysis.
"""

from __future__ import annotations

import io
import time
from typing import BinaryIO, Callable, Dict, Iterable, List, Optional, Tuple, Union

from repro.core.buffers import BufferRecord
from repro.core.constants import (
    LENGTH_MASK,
    LENGTH_SHIFT,
    MAJOR_MASK,
    MAJOR_SHIFT,
    MINOR_MASK,
)
from repro.core.majors import ControlMinor, Major
from repro.core.stream import sdelta32
from repro.core.writer import (
    _FILE_HEADER,
    _FRAME_HEADER,
    _FRAME_MAGIC_BYTES,
    TraceFileReader,
    classify_tail,
    scan_for_magic,
)
from repro.tools.listing import CYCLES_PER_SECOND

_CTRL = int(Major.CONTROL)
_ANCHOR = int(ControlMinor.TIMESTAMP_ANCHOR)


class TraceFileFollower:
    """Tails a growing ``.k42`` trace file, yielding new whole frames.

    The file-level twin of the shm collector's committed-count gate: a
    frame is yielded only once every one of its bytes is on disk — the
    trailing partial frame (the ``"growing"`` tail verdict) is never
    parsed, just waited out, so a resumable cursor replaces re-reading
    the file.  Damage inside the complete region is skipped by frame-
    magic resynchronization exactly like
    :class:`~repro.core.writer.TraceFileReader`, and described on
    :attr:`issues`.

    The file may not even hold a complete *file header* yet when the
    follower attaches; polls return nothing until it does.
    """

    def __init__(self, path: Union[str, BinaryIO]) -> None:
        self._own = isinstance(path, str)
        self.fh: BinaryIO = open(path, "rb") if self._own else path
        self.path = path if self._own else getattr(path, "name", "<stream>")
        #: Damage descriptions, same shape as ``TraceFileReader.issues``.
        self.issues: List[str] = []
        self.frames_read = 0
        self.buffer_words: Optional[int] = None
        self.frame_size = 0
        #: Owns the frame format; built from the file header once whole.
        self._reader: Optional[TraceFileReader] = None
        #: Verdict on the bytes past the cursor after :meth:`finish`.
        self.tail_state = "complete"
        self._cursor = 0

    def close(self) -> None:
        if self._own:
            self.fh.close()

    def _ensure_header(self) -> bool:
        """Parse the file header once enough bytes exist for it."""
        if self.buffer_words is not None:
            return True
        self.fh.seek(0, io.SEEK_END)
        if self.fh.tell() < _FILE_HEADER.size:
            return False
        self.fh.seek(0)
        # Strict header validation.  Over a copy of the header bytes:
        # the reader is kept for its frame parser only, and must not
        # map (or move the cursor of) the file being followed.
        self._reader = TraceFileReader(
            io.BytesIO(self.fh.read(_FILE_HEADER.size)))
        self.buffer_words = self._reader.buffer_words
        self.frame_size = self._reader.frame_size
        self._cursor = _FILE_HEADER.size
        return True

    @property
    def done(self) -> bool:
        """A file never announces completion; callers stop on idleness."""
        return False

    def poll(self) -> List[BufferRecord]:
        """Every frame that became whole since the last poll."""
        if not self._ensure_header():
            return []
        assert self._reader is not None
        self.fh.seek(0, io.SEEK_END)
        size = self.fh.tell()
        out: List[BufferRecord] = []
        while True:
            pos = self._cursor
            self.fh.seek(pos)
            try:
                rec = self._reader._parse_frame(
                    self.fh.read(self.frame_size), 0)
            except EOFError:
                break      # the trailing frame is not whole yet
            except ValueError:
                nxt = scan_for_magic(self.fh, _FRAME_MAGIC_BYTES, pos + 1)
                if nxt is None or nxt + self.frame_size > size:
                    # No whole frame after the damage *yet*.  More data
                    # may bring one (or reveal this as tail damage), so
                    # stall the cursor rather than guess.
                    break
                self.issues.append(
                    f"damaged frame at byte {pos}; skipped {nxt - pos} "
                    f"bytes to the next frame magic"
                )
                self._cursor = nxt
                continue
            out.append(rec)
            self.frames_read += 1
            self._cursor += self.frame_size
        return out

    def finish(self) -> List[BufferRecord]:
        """Final sweep once the writer has stopped: judge the tail.

        Bytes past the cursor can no longer become a whole frame, so a
        well-formed prefix is no longer "growing" evidence — but it is
        still distinguished from garbage in :attr:`tail_state`, and
        only garbage lands on :attr:`issues`.
        """
        out = self.poll()
        if self.buffer_words is None:
            self.fh.seek(0, io.SEEK_END)
            if self.fh.tell():
                self.tail_state = "truncated"
                self.issues.append("no complete trace file header")
            return out
        self.fh.seek(0, io.SEEK_END)
        pending = self.fh.tell() - self._cursor
        if pending:
            self.fh.seek(self._cursor)
            raw = self.fh.read(min(pending, _FRAME_HEADER.size))
            self.tail_state = classify_tail(raw, self.buffer_words)
            if self.tail_state == "truncated":
                self.issues.append(
                    f"truncated trailing frame: {pending} bytes after "
                    f"the last whole frame"
                )
        return out


class ShmFollower:
    """Live source over an attached shared-memory trace region.

    A thin adapter putting :class:`~repro.shm.collector.ShmCollector`
    behind the source protocol: polls respect the committed-count trust
    gate (uncovered buffers are held, not emitted), ``done`` is the
    region's quiescence flag, and ``finish`` is the forced finalize
    that emits held and partial buffers once writers have stopped.
    """

    def __init__(self, region, lag: int = 1) -> None:
        from repro.shm.collector import ShmCollector

        self.region = region
        self.collector = ShmCollector(region, lag=lag)

    @property
    def stats(self):
        return self.collector.stats

    @property
    def done(self) -> bool:
        return bool(self.region.is_done())

    def poll(self) -> List[BufferRecord]:
        return self.collector.poll()

    def finish(self) -> List[BufferRecord]:
        return self.collector.finalize()


def parse_speed(spec: str) -> float:
    """Parse a replay speed: ``"instant"``, ``"realtime"``, or ``"Nx"``.

    Returns the pacing factor — 0 for instant, 1.0 for realtime, N for
    ``"Nx"`` (``"2x"`` twice as fast, ``"0.5x"`` half speed).
    """
    s = spec.strip().lower()
    if s == "instant":
        return 0.0
    if s == "realtime":
        return 1.0
    if s.endswith("x"):
        s = s[:-1]
    try:
        factor = float(s)
    except ValueError:
        raise ValueError(
            f"bad replay speed {spec!r}: use 'instant', 'realtime', "
            f"or 'Nx' (e.g. 2x, 0.5x)"
        ) from None
    if factor <= 0:
        raise ValueError(f"replay speed must be positive, got {spec!r}")
    return factor


def _buffer_anchor(rec: BufferRecord) -> Optional[int]:
    """The buffer's leading full-width timestamp, if it starts with one.

    Sequence-0 buffers (and every late attach) begin with a
    TIMESTAMP_ANCHOR control event whose payload word is the full
    64-bit time; that word is the natural replay-pacing clock.
    """
    if rec.fill_words < 2 or len(rec.words) < 2:
        return None
    hdr = int(rec.words[0])
    major = (hdr >> MAJOR_SHIFT) & MAJOR_MASK
    minor = hdr & MINOR_MASK
    length = (hdr >> LENGTH_SHIFT) & LENGTH_MASK
    if major == _CTRL and minor == _ANCHOR and length >= 2:
        return int(rec.words[1])
    return None


class Replayer:
    """Re-emit a recorded trace as a live source, paced by its own clock.

    Each buffer's release time comes from its leading timestamp anchor
    when it has one; otherwise from the 32-bit delta of its first event
    header against the previous buffer on the same CPU — the same
    unwrap arithmetic the decoder uses, at buffer granularity.  Release
    times are made monotone across CPUs so replay order equals record
    order (which is what a follower of the original run saw).

    ``speed`` 0 releases everything immediately (**instant**); 1.0 is
    **realtime**; N is N× faster than recorded.  ``clock``/``sleep``
    are injectable, so paced replay is deterministic under test.
    """

    def __init__(
        self,
        records: Iterable[BufferRecord],
        speed: float = 0.0,
        *,
        clock: Callable[[], float] = time.monotonic,
        sleep: Callable[[float], None] = time.sleep,
        max_per_poll: Optional[int] = None,
    ) -> None:
        if speed < 0:
            raise ValueError("speed must be >= 0")
        self.records = list(records)
        self.speed = float(speed)
        self.max_per_poll = max_per_poll
        self._clock = clock
        self._sleep = sleep
        self._i = 0
        self._t0: Optional[Tuple[float, int]] = None  # (wall, trace) origin
        self._times = self._release_times()

    def _release_times(self) -> List[int]:
        state: Dict[int, Tuple[int, int]] = {}  # cpu -> (full, ts32)
        times: List[int] = []
        now = 0
        for rec in self.records:
            ts32 = (int(rec.words[0]) >> 32) if len(rec.words) else 0
            full = _buffer_anchor(rec)
            if full is None:
                last = state.get(rec.cpu)
                if last is not None:
                    full = last[0] + sdelta32(ts32, last[1])
            if full is None:
                full = now          # no clock yet: release with the previous
            state[rec.cpu] = (full, ts32)
            now = max(now, full)    # monotone: replay preserves record order
            times.append(now)
        return times

    @property
    def done(self) -> bool:
        return self._i >= len(self.records)

    def poll(self) -> List[BufferRecord]:
        """Records due now; a paced replay sleeps until one is due."""
        if self.done:
            return []
        n = len(self.records)
        if self.speed == 0:
            j = n
        else:
            if self._t0 is None:
                self._t0 = (self._clock(), self._times[self._i])
            wall0, trace0 = self._t0

            def due(i: int) -> float:
                return (self._times[i] - trace0) / CYCLES_PER_SECOND \
                    / self.speed

            wait = due(self._i) - (self._clock() - wall0)
            if wait > 0:
                self._sleep(wait)
            elapsed = self._clock() - wall0
            j = self._i + 1          # always progress past the due record
            while j < n and due(j) <= elapsed:
                j += 1
        if self.max_per_poll is not None:
            j = min(j, self._i + self.max_per_poll)
        out = self.records[self._i:j]
        self._i = j
        return out

    def finish(self) -> List[BufferRecord]:
        out = self.records[self._i:]
        self._i = len(self.records)
        return out
