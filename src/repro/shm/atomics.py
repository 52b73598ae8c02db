"""Atomic words over a shared-memory buffer: the cross-process ``stwcx.``.

:class:`~repro.atomic.primitives.AtomicWord` emulates the hardware
compare-and-store with a micro-lock *internal to the primitive*; that
works between threads but not between processes.  These classes carry
the same semantics across address spaces: the word's storage is an
8-byte little-endian slot in a :mod:`multiprocessing.shared_memory`
buffer, and the micro-lock is a POSIX ``fcntl`` record lock on exactly
that slot's byte range of the segment's backing file.  As with the
in-process stand-in, the lock is held only for the duration of one
read-modify-write — never across the reserve/log/commit sequence, which
is what "lockless" means in the paper (§3.1).

Two locking layers are needed because POSIX record locks are
*per-process* (they do not exclude threads of the same process): a
process-local :class:`threading.Lock` — one per backing file, shared by
every attach in the process via a module registry — serializes threads,
and the ``fcntl`` byte-range lock serializes processes.

The second layer is only needed where two processes can write the same
word.  One process binds each CPU's lane, and the binding is enforced
(:mod:`repro.shm.lanes`), so the words of a lane this process owns take
a :class:`~repro.shm.lanes.LaneLock` — the thread layer alone — while
every other word keeps the full :class:`SegmentLock`.  The classes here
take whichever lock they are handed.

``load`` takes no lock: an aligned 8-byte load is atomic on the modeled
hardware (and in practice: CPython reads the slot with one 8-byte
``memcpy``).  The protocol is robust to this anyway — every load feeds
a compare-and-store that revalidates it.

Like the stepped primitives (:mod:`repro.atomic.stepped`), each word
accepts optional ``yield_fn``/``observer`` hooks so the model checker
(:mod:`repro.check.shm`) can turn every shared-memory operation into an
explicit scheduling point; both default to ``None`` and cost one
attribute test on the hot path.
"""

from __future__ import annotations

import os
import struct
import tempfile
import threading
from typing import Callable, Optional

try:  # POSIX only; Windows would need msvcrt.locking (not supported here)
    import fcntl
except ImportError:  # pragma: no cover - non-POSIX platform
    fcntl = None  # type: ignore[assignment]

_WORD_MASK = (1 << 64) - 1
_WORD = struct.Struct("<Q")

#: Hook signatures, identical to :mod:`repro.atomic.stepped`.
YieldFn = Callable[[str], None]
Observer = Callable[[str, str, tuple, object], None]

#: Process-local registry: one thread lock per backing file, so every
#: attach of the same segment within a process shares the intra-process
#: half of the micro-lock.  Keyed by (st_dev, st_ino).
_THREAD_LOCKS: dict = {}
_THREAD_LOCKS_GUARD = threading.Lock()


def lockfile_for_segment(seg_name: str) -> str:
    """The path the cross-process micro-lock is taken on.

    On Linux the segment itself is a file under ``/dev/shm`` and the
    record locks go straight onto it.  Where the segment has no
    filesystem name (macOS), a sidecar lock file keyed by the segment
    name is used instead; record locks on ranges past EOF are valid, so
    the sidecar never needs to grow.
    """
    direct = f"/dev/shm/{seg_name}"
    if os.path.exists(direct):
        return direct
    return os.path.join(tempfile.gettempdir(), f"repro-shm-{seg_name}.lock")


class SegmentLock:
    """The per-segment micro-lock: fcntl record locks + a thread lock.

    One instance per attach; instances in the same process attached to
    the same segment share the registry thread lock (``thread_lock``),
    instances in different processes meet at the fcntl byte-range lock.
    """

    def __init__(self, seg_name: str) -> None:
        self.path = lockfile_for_segment(seg_name)
        self._sidecar = not self.path.startswith("/dev/shm/")
        self._fd = os.open(self.path, os.O_RDWR | os.O_CREAT, 0o600)
        st = os.fstat(self._fd)
        #: Names the segment within this host: (st_dev, st_ino).
        self.key = (st.st_dev, st.st_ino)
        with _THREAD_LOCKS_GUARD:
            self.thread_lock = _THREAD_LOCKS.setdefault(
                self.key, threading.Lock())

    def acquire(self, byte_off: int) -> None:
        self.thread_lock.acquire()
        try:
            if fcntl is not None:
                fcntl.lockf(self._fd, fcntl.LOCK_EX, 8, byte_off, os.SEEK_SET)
        except BaseException:  # pragma: no cover - keep the pair balanced
            self.thread_lock.release()
            raise

    def release(self, byte_off: int) -> None:
        try:
            if fcntl is not None:
                fcntl.lockf(self._fd, fcntl.LOCK_UN, 8, byte_off, os.SEEK_SET)
        finally:
            self.thread_lock.release()

    def close(self) -> None:
        """Release the fd (idempotent).  Per POSIX, closing drops any
        record locks this process holds on the file — callers must not
        close while an operation is in flight."""
        if self._fd is not None:
            os.close(self._fd)
            self._fd = None  # type: ignore[assignment]

    def unlink_sidecar(self) -> None:
        """Remove the sidecar lock file, if one was used (idempotent)."""
        if self._sidecar:
            try:
                os.unlink(self.path)
            except FileNotFoundError:
                pass

    def __enter__(self) -> "SegmentLock":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


class ShmAtomicWord:
    """A 64-bit word in shared memory with atomic operations.

    Same surface as :class:`~repro.atomic.primitives.AtomicWord`, plus
    ``peek`` (checker-side read with no scheduling point) and the
    ``yield_fn``/``observer`` seams of the stepped primitives.
    """

    __slots__ = ("_buf", "_off", "_lock", "name", "yield_fn", "observer")

    def __init__(
        self,
        buf,
        byte_off: int,
        lock: SegmentLock,
        name: str = "word",
        yield_fn: Optional[YieldFn] = None,
        observer: Optional[Observer] = None,
    ) -> None:
        if byte_off % 8 != 0:
            raise ValueError("shm words must be 8-byte aligned")
        self._buf = buf
        self._off = byte_off
        self._lock = lock
        self.name = name
        self.yield_fn = yield_fn
        self.observer = observer

    # -- checker-side access (no scheduling point, no lock) ------------
    def peek(self) -> int:
        return _WORD.unpack_from(self._buf, self._off)[0]

    # -- protocol-side operations --------------------------------------
    def load(self) -> int:
        if self.yield_fn is not None:
            self.yield_fn(f"{self.name}.load")
        value = _WORD.unpack_from(self._buf, self._off)[0]
        if self.observer is not None:
            self.observer(self.name, "load", (), value)
        return value

    def store(self, value: int) -> None:
        if self.yield_fn is not None:
            self.yield_fn(f"{self.name}.store")
        value &= _WORD_MASK
        self._lock.acquire(self._off)
        try:
            old = _WORD.unpack_from(self._buf, self._off)[0]
            _WORD.pack_into(self._buf, self._off, value)
        finally:
            self._lock.release(self._off)
        if self.observer is not None:
            self.observer(self.name, "store", (old, value), None)

    def compare_and_store(self, expected: int, new: int) -> bool:
        if self.yield_fn is not None:
            self.yield_fn(f"{self.name}.cas")
        expected &= _WORD_MASK
        new &= _WORD_MASK
        self._lock.acquire(self._off)
        try:
            ok = _WORD.unpack_from(self._buf, self._off)[0] == expected
            if ok:
                _WORD.pack_into(self._buf, self._off, new)
        finally:
            self._lock.release(self._off)
        if self.observer is not None:
            self.observer(self.name, "cas", (expected, new), ok)
        return ok

    def fetch_and_add(self, delta: int) -> int:
        if self.yield_fn is not None:
            self.yield_fn(f"{self.name}.faa")
        self._lock.acquire(self._off)
        try:
            old = _WORD.unpack_from(self._buf, self._off)[0]
            _WORD.pack_into(self._buf, self._off, (old + delta) & _WORD_MASK)
        finally:
            self._lock.release(self._off)
        if self.observer is not None:
            self.observer(self.name, "faa",
                          (old, (old + delta) & _WORD_MASK), old)
        return old

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"ShmAtomicWord({self.name}@{self._off}={self.peek():#x})"


class ShmAtomicArray:
    """A fixed run of 64-bit shm words with per-element atomic ops.

    Mirrors :class:`~repro.atomic.primitives.AtomicArray` (the
    per-buffer committed counts).  Each element locks its own 8-byte
    range, so counters for different buffers never contend.
    """

    __slots__ = ("_buf", "_off", "_length", "_lock", "name",
                 "yield_fn", "observer")

    def __init__(
        self,
        buf,
        byte_off: int,
        length: int,
        lock: SegmentLock,
        name: str = "array",
        yield_fn: Optional[YieldFn] = None,
        observer: Optional[Observer] = None,
    ) -> None:
        if length < 0:
            raise ValueError("length must be non-negative")
        if byte_off % 8 != 0:
            raise ValueError("shm words must be 8-byte aligned")
        self._buf = buf
        self._off = byte_off
        self._length = length
        self._lock = lock
        self.name = name
        self.yield_fn = yield_fn
        self.observer = observer

    def __len__(self) -> int:
        return self._length

    def _at(self, index: int) -> int:
        if not 0 <= index < self._length:
            raise IndexError(f"index {index} out of range 0..{self._length}")
        return self._off + 8 * index

    # -- checker-side access -------------------------------------------
    def peek(self, index: int) -> int:
        return _WORD.unpack_from(self._buf, self._at(index))[0]

    def peek_all(self) -> list:
        return [self.peek(i) for i in range(self._length)]

    # -- protocol-side operations --------------------------------------
    def load(self, index: int) -> int:
        off = self._at(index)
        if self.yield_fn is not None:
            self.yield_fn(f"{self.name}[{index}].load")
        value = _WORD.unpack_from(self._buf, off)[0]
        if self.observer is not None:
            self.observer(f"{self.name}[{index}]", "load", (index,), value)
        return value

    def store(self, index: int, value: int) -> None:
        off = self._at(index)
        if self.yield_fn is not None:
            self.yield_fn(f"{self.name}[{index}].store")
        value &= _WORD_MASK
        self._lock.acquire(off)
        try:
            old = _WORD.unpack_from(self._buf, off)[0]
            _WORD.pack_into(self._buf, off, value)
        finally:
            self._lock.release(off)
        if self.observer is not None:
            self.observer(f"{self.name}[{index}]", "store",
                          (index, old, value), None)

    def compare_and_store(self, index: int, expected: int, new: int) -> bool:
        off = self._at(index)
        if self.yield_fn is not None:
            self.yield_fn(f"{self.name}[{index}].cas")
        expected &= _WORD_MASK
        new &= _WORD_MASK
        self._lock.acquire(off)
        try:
            ok = _WORD.unpack_from(self._buf, off)[0] == expected
            if ok:
                _WORD.pack_into(self._buf, off, new)
        finally:
            self._lock.release(off)
        if self.observer is not None:
            self.observer(f"{self.name}[{index}]", "cas",
                          (index, expected, new), ok)
        return ok

    def fetch_and_add(self, index: int, delta: int) -> int:
        off = self._at(index)
        if self.yield_fn is not None:
            self.yield_fn(f"{self.name}[{index}].faa")
        self._lock.acquire(off)
        try:
            old = _WORD.unpack_from(self._buf, off)[0]
            _WORD.pack_into(self._buf, off, (old + delta) & _WORD_MASK)
        finally:
            self._lock.release(off)
        if self.observer is not None:
            self.observer(f"{self.name}[{index}]", "faa",
                          (index, old, (old + delta) & _WORD_MASK), old)
        return old

    def snapshot(self) -> list:
        return [self.load(i) for i in range(self._length)]


class ShmWordsView:
    """A run of shm words with the list surface the logger expects.

    Serves as :attr:`TraceControl.array` (the trace memory) and as the
    plain ``slot_seq`` array.  Single-word stores take **no lock**: the
    reservation protocol hands each word to exactly one writer, and an
    aligned 8-byte store is atomic on the modeled hardware — this is
    precisely the paper's "fill in the reserved words with no lock
    held".  Slice reads copy out (the write-out path); slice writes are
    bookkeeping (reset / zero-ahead) and also unlocked, with the same
    single-owner caveat the in-process implementation documents.
    """

    __slots__ = ("_buf", "_off", "_length")

    def __init__(self, buf, byte_off: int, length: int) -> None:
        if byte_off % 8 != 0:
            raise ValueError("shm words must be 8-byte aligned")
        self._buf = buf
        self._off = byte_off
        self._length = length

    def __len__(self) -> int:
        return self._length

    def _check(self, index: int) -> int:
        if not 0 <= index < self._length:
            raise IndexError(f"index {index} out of range 0..{self._length}")
        return self._off + 8 * index

    def __getitem__(self, key):
        if isinstance(key, slice):
            start, stop, step = key.indices(self._length)
            if step != 1:
                return [self[i] for i in range(start, stop, step)]
            n = max(0, stop - start)
            return list(struct.unpack_from(f"<{n}Q", self._buf,
                                           self._off + 8 * start))
        return _WORD.unpack_from(self._buf, self._check(key))[0]

    def __setitem__(self, key, value) -> None:
        if isinstance(key, slice):
            start, stop, step = key.indices(self._length)
            if step != 1:
                raise ValueError("extended-step slice writes unsupported")
            values = [v & _WORD_MASK for v in value]
            if len(values) != stop - start:
                raise ValueError(
                    f"slice of {stop - start} words assigned "
                    f"{len(values)} values")
            struct.pack_into(f"<{len(values)}Q", self._buf,
                             self._off + 8 * start, *values)
            return
        _WORD.pack_into(self._buf, self._check(key), value & _WORD_MASK)

    def __iter__(self):
        return iter(self[0:self._length])

    def tolist(self) -> list:
        return self[0:self._length]
