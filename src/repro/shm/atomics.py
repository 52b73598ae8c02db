"""The cross-process ``stwcx.``: a segment lock and the store that takes it.

A :class:`~repro.core.lane.LaneStore` emulates the hardware
compare-and-store with a thread lock; that works between threads but
not between processes.  Over a :mod:`multiprocessing.shared_memory`
segment the same words need a lock every process meets: a POSIX
``fcntl`` record lock on exactly the word's byte range of the segment's
backing file.  As with the in-process stand-in, the lock is held only
for one read-modify-write — never across the reserve/log/commit
sequence, which is what "lockless" means in the paper (§3.1).

Two locking layers are needed because POSIX record locks are
*per-process* (they do not exclude threads of the same process): a
process-local :class:`threading.Lock` — one per backing file, shared by
every attach in the process via a module registry — serializes threads,
and the ``fcntl`` byte-range lock serializes processes.

The second layer is only needed where two processes can write the same
word.  One process binds each CPU's lane, and the binding is enforced
(:mod:`repro.shm.lanes`), so the words of a lane this process owns are
a plain :class:`~repro.core.lane.LaneStore` over the segment under the
thread layer alone, while every other word goes through a
:class:`SegmentStore`.
"""

from __future__ import annotations

import os
import tempfile
import threading

from repro.core.lane import LaneStore

try:  # POSIX only; Windows would need msvcrt.locking (not supported here)
    import fcntl
except ImportError:  # pragma: no cover - non-POSIX platform
    fcntl = None  # type: ignore[assignment]

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
    """The per-segment micro-lock: fcntl record locks on ``fd`` + a
    thread lock.

    One instance per attach; instances in the same process attached to
    the same segment share the registry thread lock (``thread_lock``),
    instances in different processes meet at the fcntl byte-range lock
    (:class:`SegmentStore` takes both).
    """

    def __init__(self, seg_name: str) -> None:
        self.path = lockfile_for_segment(seg_name)
        self._sidecar = not self.path.startswith("/dev/shm/")
        self.fd = os.open(self.path, os.O_RDWR | os.O_CREAT, 0o600)
        st = os.fstat(self.fd)
        #: Names the segment within this host: (st_dev, st_ino).
        self.key = (st.st_dev, st.st_ino)
        with _THREAD_LOCKS_GUARD:
            self.thread_lock = _THREAD_LOCKS.setdefault(
                self.key, threading.Lock())

    def close(self) -> None:
        """Release the fd (idempotent).  Per POSIX, closing drops any
        record locks this process holds on the file — callers must not
        close while an operation is in flight."""
        if self.fd is not None:
            os.close(self.fd)
            self.fd = None  # type: ignore[assignment]

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


class SegmentStore(LaneStore):
    """Words of a segment whose compare-and-store takes the full
    :class:`SegmentLock`: the thread lock, then an ``fcntl`` lock on the
    word's 8 bytes.  ``mem`` must be a view of the whole segment, so
    word ``i`` is byte ``8 * i`` of the backing file.
    """

    __slots__ = ("_fd",)

    def __init__(self, mem, seglock: SegmentLock) -> None:
        super().__init__(mem, seglock.thread_lock)
        self._fd = seglock.fd

    def cas(self, i: int, old: int, new: int) -> bool:
        mem = self.mem
        if mem[i] != old:
            return False  # would fail under the lock too; no syscall
        off = 8 * i
        lock = self.lock
        lock.acquire()
        try:
            _lockf(self._fd, _LOCK_EX, 8, off, os.SEEK_SET)
            try:
                if mem[i] != old:
                    return False
                mem[i] = new
                return True
            finally:
                _lockf(self._fd, _LOCK_UN, 8, off, os.SEEK_SET)
        finally:
            lock.release()


if fcntl is not None:
    _lockf, _LOCK_EX, _LOCK_UN = fcntl.lockf, fcntl.LOCK_EX, fcntl.LOCK_UN
else:  # pragma: no cover - non-POSIX platform: threads only
    def _lockf(*_args) -> None:
        pass

    _LOCK_EX = _LOCK_UN = 0
