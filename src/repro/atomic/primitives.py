"""Emulated hardware atomic words.

Semantics follow the 64-bit unsigned machine word: all values are reduced
modulo 2**64, and ``fetch_and_add`` wraps silently the way hardware does.

Loads are plain reads: an aligned word load is atomic, and every load in
the protocol feeds a compare-and-store that revalidates it (the argument
:mod:`repro.shm.atomics` makes too).  Only read-modify-writes take the
micro-lock.  ``store`` is one of them on purpose: a store landing between
a CAS's compare and its write would be lost, where on hardware it
cancels the reservation instead.
"""

from __future__ import annotations

import threading

_WORD_MASK = (1 << 64) - 1


class AtomicWord:
    """A single 64-bit word with atomic operations.

    The internal lock emulates the atomicity of a hardware read-modify-
    write; callers never see or hold it.  This is the documented
    substitution for PowerPC ``lwarx``/``stwcx.`` (see DESIGN.md §2).
    """

    __slots__ = ("_value", "_lock")

    def __init__(self, initial: int = 0) -> None:
        self._value = initial & _WORD_MASK
        self._lock = threading.Lock()

    def load(self) -> int:
        """Read the current value (a plain, lock-free read)."""
        return self._value

    def store(self, value: int) -> None:
        """Atomically overwrite the current value."""
        self._lock.acquire()
        try:
            self._value = value & _WORD_MASK
        finally:
            self._lock.release()

    def compare_and_store(self, expected: int, new: int) -> bool:
        """Atomically set the word to ``new`` iff it still equals ``expected``.

        Returns True when the store happened (the caller "won"), False when
        another writer got there first — the return value the Figure 2
        pseudo-code branches on.
        """
        expected &= _WORD_MASK
        new &= _WORD_MASK
        lock = self._lock
        lock.acquire()
        try:
            if self._value != expected:
                return False
            self._value = new
            return True
        finally:
            lock.release()

    def fetch_and_add(self, delta: int) -> int:
        """Atomically add ``delta``; return the *previous* value."""
        self._lock.acquire()
        try:
            old = self._value
            self._value = (old + delta) & _WORD_MASK
            return old
        finally:
            self._lock.release()

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"AtomicWord({self.load():#x})"


class AtomicArray:
    """A fixed-size array of 64-bit words with per-element atomic ops.

    Used for the per-buffer committed-word counts (``traceCommit`` keeps
    one counter per buffer).  Locks are striped so that counters for
    different buffers do not contend with each other.
    """

    __slots__ = ("_values", "_locks", "_nstripes")

    def __init__(self, length: int, initial: int = 0, nstripes: int = 16) -> None:
        if length < 0:
            raise ValueError("length must be non-negative")
        self._values = [initial & _WORD_MASK] * length
        self._nstripes = max(1, min(nstripes, max(length, 1)))
        self._locks = [threading.Lock() for _ in range(self._nstripes)]

    def __len__(self) -> int:
        return len(self._values)

    def load(self, index: int) -> int:
        return self._values[index]

    def store(self, index: int, value: int) -> None:
        lock = self._locks[index % self._nstripes]
        lock.acquire()
        try:
            self._values[index] = value & _WORD_MASK
        finally:
            lock.release()

    def compare_and_store(self, index: int, expected: int, new: int) -> bool:
        expected &= _WORD_MASK
        new &= _WORD_MASK
        lock = self._locks[index % self._nstripes]
        lock.acquire()
        try:
            if self._values[index] != expected:
                return False
            self._values[index] = new
            return True
        finally:
            lock.release()

    def fetch_and_add(self, index: int, delta: int) -> int:
        lock = self._locks[index % self._nstripes]
        lock.acquire()
        try:
            old = self._values[index]
            self._values[index] = (old + delta) & _WORD_MASK
            return old
        finally:
            lock.release()

    def snapshot(self) -> list[int]:
        """Non-atomic (per-element atomic) copy of all values."""
        return list(self._values)
