"""The lane word store: one CPU's hot tracing state as a flat run of words.

The paper keeps everything a writer touches per processor and mapped
into every address space (§2, "User-mapped per-processor buffers"): an
event costs a handful of loads and stores into one CPU-local region.
A *lane* is that region here — a flat run of 64-bit words::

    index | booked_seq | owner | reserved
    | committed[num_buffers] | slot_seq[num_buffers]
    | trace memory (buffer_words * num_buffers)

A :class:`LaneStore` reads and writes those words through one
``memoryview(...).cast("Q")``: backed by a ``bytearray`` for a private
facility, by the shared-memory segment for :mod:`repro.shm` (whose
segment is a header followed by one lane per CPU).  Loads and trace-word
stores are plain indexing — an aligned 8-byte access is atomic on the
modeled hardware, and the reservation protocol hands each trace word to
exactly one writer.  Only compare-and-store (:meth:`LaneStore.cas`) takes
a lock: the documented stand-in for PowerPC ``lwarx``/``stwcx.`` (see
DESIGN.md §2), a thread lock chosen once when the store is built.
:mod:`repro.shm.atomics` substitutes the cross-process segment lock for
lanes no process owns, and :mod:`repro.check` substitutes a stepped
store that makes every access a scheduling point.

The cast view is native-endian while trace files, crash dumps and the
segment header are little-endian, so a view is refused on a big-endian
host (:class:`UnsupportedByteOrder`) rather than silently byte-swapped.
"""

from __future__ import annotations

import sys
import threading

from repro.core.constants import WORD_MASK

# Lane word offsets, before the per-buffer arrays.
INDEX = 0
BOOKED = 1
OWNER = 2
FIXED_WORDS = 4  # index, booked_seq, owner, 1 reserved


def lane_words(buffer_words: int, num_buffers: int) -> int:
    """Words in one lane of this geometry."""
    return FIXED_WORDS + num_buffers * (2 + buffer_words)


class UnsupportedByteOrder(RuntimeError):
    """The host is not little-endian, so a cast view would not match the
    little-endian words of trace files, dumps and shm segments."""


def host_byteorder() -> str:
    """The byte order a cast view stores in (``sys.byteorder``)."""
    return sys.byteorder


def check_byteorder() -> None:
    """Refuse a big-endian host with :class:`UnsupportedByteOrder`."""
    order = host_byteorder()
    if order != "little":
        raise UnsupportedByteOrder(
            f"lane words are little-endian and sys.byteorder is {order!r}; "
            f"a native cast view would byte-swap every word")


def cast_words(buf) -> memoryview:
    """``buf`` as a view of native 64-bit words, on a little-endian host."""
    check_byteorder()
    view = memoryview(buf)
    if view.nbytes % 8:
        view.release()
        raise ValueError(
            f"a run of {view.nbytes} bytes is not a whole number of "
            f"64-bit words")
    return view.cast("B").cast("Q")


class LaneStore:
    """A run of 64-bit words plus the lock its read-modify-writes take.

    ``mem`` is indexed directly by the logger (``mem[i]`` loads,
    ``mem[i] = v`` stores); :meth:`cas` is the one atomic operation the
    protocol needs.  ``store`` and ``fetch_and_add`` are compare-and-store
    loops, so a subclass that substitutes :meth:`cas` substitutes them
    too.
    """

    __slots__ = ("mem", "lock", "__weakref__")

    def __init__(self, mem, lock=None) -> None:
        self.mem = mem
        self.lock = lock if lock is not None else threading.Lock()

    @classmethod
    def private(cls, nwords: int) -> "LaneStore":
        """A zeroed store of ``nwords`` words in this process's heap."""
        return cls(cast_words(bytearray(8 * nwords)))

    def __len__(self) -> int:
        return len(self.mem)

    def load(self, i: int) -> int:
        return self.mem[i]

    #: A read the model checker does not count as a scheduling point;
    #: for a plain store it is the load.
    peek = load

    def cas(self, i: int, old: int, new: int) -> bool:
        """Set word ``i`` to ``new`` iff it still holds ``old``."""
        lock = self.lock
        lock.acquire()  # cheaper than ``with``, which calls __exit__(*3)
        try:
            mem = self.mem
            if mem[i] != old:
                return False
            mem[i] = new
            return True
        finally:
            lock.release()

    def store(self, i: int, value: int) -> None:
        """Atomically overwrite word ``i`` (a store landing inside another
        writer's compare-and-store would be lost)."""
        value &= WORD_MASK
        while not self.cas(i, self.mem[i], value):
            pass

    def fetch_and_add(self, i: int, delta: int) -> int:
        """Atomically add ``delta`` to word ``i``; return the old value."""
        while True:
            old = self.mem[i]
            if self.cas(i, old, (old + delta) & WORD_MASK):
                return old

    def word(self, i: int) -> "LaneWord":
        return LaneWord(self, i)

    def release(self) -> None:
        """Release the view: every later access raises ``ValueError``."""
        self.mem.release()


class LaneWord:
    """One word of a store with the surface of an atomic word.

    What :meth:`repro.shm.ShmTraceRegion.index_word` and friends hand
    out to collectors, probes and tests; operands wrap at 64 bits.
    """

    __slots__ = ("_store", "i")

    def __init__(self, store: LaneStore, i: int) -> None:
        self._store = store
        self.i = i

    def load(self) -> int:
        return self._store.load(self.i)

    def peek(self) -> int:
        return self._store.peek(self.i)

    def store(self, value: int) -> None:
        self._store.store(self.i, value)

    def compare_and_store(self, expected: int, new: int) -> bool:
        return self._store.cas(self.i, expected & WORD_MASK, new & WORD_MASK)

    def fetch_and_add(self, delta: int) -> int:
        return self._store.fetch_and_add(self.i, delta)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"LaneWord({self.i}={self.peek():#x})"
