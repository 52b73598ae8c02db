"""Segment layout and lifecycle: the user-mapped trace memory, for real.

In K42 the per-CPU trace control structures and trace memory are mapped
into *every* address space (§2, "User-mapped per-processor buffers"); any
process logs straight into them without a system call.  This module
reproduces that with one POSIX shared-memory segment holding, for each
CPU: the reservation index, the buffer-start bookkeeping word, the
generation-tagged committed counts, the slot-occupancy words, and the
trace memory itself.  Processes rendezvous on the segment *name* — the
moral equivalent of the kernel mapping the region into a new address
space — and run the unchanged reserve/log/commit protocol over it.

Layout (64-bit little-endian words)::

    header    : magic | version | ncpus | buffer_words | num_buffers
              | tick_ns | clock_origin_ns | flags | reserved...   (16 words)
    cpu ctrl  : index | booked_seq | owner | reserved
              | committed[num_buffers] | slot_seq[num_buffers]    (per CPU)
    trace mem : buffer_words * num_buffers words                  (per CPU)

All per-CPU state is contiguous and CPU blocks are disjoint, preserving
the paper's no-shared-cache-lines property at segment granularity.  A
CPU's block and trace memory form its *lane* — the same run of words a
private facility keeps in its heap (:mod:`repro.core.lane`); the owner
word names the one process bound to it as a writer
(:mod:`repro.shm.lanes`).  Each attach reads and writes the whole
segment through one cast view, :attr:`ShmTraceRegion.words`, and
:meth:`ShmTraceRegion.close` releases it, so a logger that outlives the
attach fails with ``ValueError`` instead of writing into unmapped memory.

Timestamps must agree across processes, so the creator stamps a
``time.monotonic_ns`` origin into the header and every process derives
ticks from the same system-wide clock (:class:`SharedShmClock`);
per-process ``WallClock`` origins would skew each writer's stream.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass
from multiprocessing import shared_memory
from typing import Dict, Optional

from repro.core.buffers import Mode, TraceControl
from repro.core.lane import (
    BOOKED,
    FIXED_WORDS,
    INDEX,
    OWNER,
    LaneStore,
    LaneWord,
    cast_words,
    check_byteorder,
    lane_words,
)
from repro.core.logger import TraceLogger
from repro.core.mask import TraceMask
from repro.core.registry import EventRegistry
from repro.shm.atomics import SegmentLock, SegmentStore
from repro.shm.lanes import Lane, LaneOwner

#: ``b"K42SHM01"`` read as a little-endian 64-bit word.
SEGMENT_MAGIC = int.from_bytes(b"K42SHM01", "little")
SEGMENT_VERSION = 1
HEADER_WORDS = 16

# Header word indices.
_H_MAGIC = 0
_H_VERSION = 1
_H_NCPUS = 2
_H_BUFFER_WORDS = 3
_H_NUM_BUFFERS = 4
_H_TICK_NS = 5
_H_CLOCK_ORIGIN = 6
_H_FLAGS = 7

#: Flag bits (word ``_H_FLAGS``).
FLAG_DONE = 1


class ShmFormatError(ValueError):
    """The named segment is not a trace region this code understands."""


@dataclass(frozen=True)
class ShmLayout:
    """Pure geometry: word offsets of everything in the segment."""

    ncpus: int
    buffer_words: int
    num_buffers: int

    def __post_init__(self) -> None:
        if self.ncpus < 1:
            raise ValueError("ncpus must be >= 1")

    @property
    def total_words_per_cpu(self) -> int:
        return self.buffer_words * self.num_buffers

    @property
    def ctrl_words(self) -> int:
        return FIXED_WORDS + 2 * self.num_buffers

    @property
    def cpu_words(self) -> int:
        return lane_words(self.buffer_words, self.num_buffers)

    @property
    def segment_words(self) -> int:
        return HEADER_WORDS + self.ncpus * self.cpu_words

    @property
    def segment_bytes(self) -> int:
        return 8 * self.segment_words

    # -- word offsets ----------------------------------------------------
    def cpu_base(self, cpu: int) -> int:
        if not 0 <= cpu < self.ncpus:
            raise ValueError(f"cpu {cpu} out of range 0..{self.ncpus}")
        return HEADER_WORDS + cpu * self.cpu_words

    def index_word(self, cpu: int) -> int:
        return self.cpu_base(cpu) + INDEX

    def booked_word(self, cpu: int) -> int:
        return self.cpu_base(cpu) + BOOKED

    def owner_word(self, cpu: int) -> int:
        return self.cpu_base(cpu) + OWNER

    def committed_words(self, cpu: int) -> int:
        return self.cpu_base(cpu) + FIXED_WORDS

    def slot_seq_words(self, cpu: int) -> int:
        return self.committed_words(cpu) + self.num_buffers

    def trace_words(self, cpu: int) -> int:
        return self.cpu_base(cpu) + self.ctrl_words


class SharedShmClock:
    """System-wide monotonic ticks from the segment's shared origin.

    ``CLOCK_MONOTONIC`` (``time.monotonic_ns``) has one epoch for the
    whole machine on Linux and macOS, so every process attaching the
    segment computes identical tick values — the PowerPC synchronized
    timebase, cross-process edition.
    """

    cost_cycles = 10

    def __init__(self, origin_ns: int, tick_ns: int = 1) -> None:
        if tick_ns < 1:
            raise ValueError("tick_ns must be >= 1")
        self.origin_ns = origin_ns
        self.tick_ns = tick_ns

    def now(self, cpu: int = 0) -> int:
        return (time.monotonic_ns() - self.origin_ns) // self.tick_ns


def _attach_segment(name: str) -> shared_memory.SharedMemory:
    """Attach to an existing segment without resource-tracker adoption.

    Python <= 3.12 registers the segment with the ``resource_tracker``
    on *every* attach, so each non-creating process would try to unlink
    it at exit (and warn about "leaked" objects it never owned).  3.13
    grew ``track=False`` for exactly this; on older versions the
    ``register`` call is suppressed while attaching.  Suppressing is the
    only safe emulation: the tracker's cache is one set shared by the
    whole process tree, so the register-then-``unregister`` alternative
    would erase the *creator's* registration and the eventual ``unlink``
    would trip a tracker KeyError.  The creator stays registered — the
    tracker is then the backstop that unlinks the segment if the owning
    process dies before :meth:`ShmTraceRegion.unlink`.
    """
    try:
        return shared_memory.SharedMemory(name=name, track=False)
    except TypeError:  # Python <= 3.12: no track parameter
        from multiprocessing import resource_tracker
        orig_register = resource_tracker.register
        resource_tracker.register = lambda *a, **kw: None  # type: ignore
        try:
            return shared_memory.SharedMemory(name=name)
        finally:
            resource_tracker.register = orig_register


class ShmTraceRegion:
    """One shared-memory segment of per-CPU trace buffers.

    Create in one process, :meth:`attach` by name from any other; both
    hand out :class:`~repro.core.buffers.TraceControl` /
    :class:`~repro.core.logger.TraceLogger` objects whose lane lives in
    the segment.  Exactly one process binds each CPU as a writer at a
    time, and :meth:`logger` enforces it: its claim raises
    :class:`~repro.shm.lanes.ShmLaneBusy` when another live process owns
    the lane.  Readers — the collector — may watch any CPU concurrently.

    ``lane_owner`` is the process claims are made as; ``None`` is this
    OS process, looked up at each claim so a forked child is itself.
    The model checker sets one per simulated process.
    """

    def __init__(self, shm: shared_memory.SharedMemory, layout: ShmLayout,
                 tick_ns: int, clock_origin_ns: int, owner: bool) -> None:
        self.shm = shm
        self.layout = layout
        self.tick_ns = tick_ns
        self.clock_origin_ns = clock_origin_ns
        self.owner = owner
        #: The whole segment as native 64-bit words: word ``i`` is byte
        #: ``8 * i``.  Every store this attach hands out indexes it.
        self.words = cast_words(shm.buf[:layout.segment_bytes])
        self.seglock = SegmentLock(shm.name)
        #: Words no process owns: header flags, owner words, unclaimed
        #: lanes.  Their compare-and-store takes the fcntl lock.
        self.segment_store = SegmentStore(self.words, self.seglock)
        self.lane_owner: Optional[LaneOwner] = None
        self._bound: Dict[int, Lane] = {}
        self._owned: Dict[int, LaneStore] = {}
        self._bound_guard = threading.Lock()
        self._closed = False

    @property
    def name(self) -> str:
        return self.shm.name

    # -- lifecycle -------------------------------------------------------
    @classmethod
    def create(
        cls,
        name: Optional[str] = None,
        *,
        ncpus: int = 1,
        buffer_words: int = 256,
        num_buffers: int = 4,
        tick_ns: int = 1,
        start_anchors: bool = True,
        clock=None,
    ) -> "ShmTraceRegion":
        """Create and initialize a fresh segment (zero-filled by the OS).

        ``start_anchors`` logs the sequence-0 timestamp anchor into
        every CPU's buffer — the job of :meth:`TraceLogger.start`, done
        once here by the creator so attaching writers never race over
        it.  The anchors go through the unowned (fully locked) path and
        every lane is left unowned, free for the writers to claim.
        ``clock`` overrides the shared clock (the model checker
        passes its step clock); writers attaching later always derive
        :class:`SharedShmClock` from the header, so an override only
        makes sense when every participant is handed the same object.
        Refused with :class:`~repro.core.lane.UnsupportedByteOrder` on a
        big-endian host, before any segment exists.
        """
        layout = ShmLayout(ncpus=ncpus, buffer_words=buffer_words,
                           num_buffers=num_buffers)
        check_byteorder()
        shm = shared_memory.SharedMemory(
            create=True, size=layout.segment_bytes, name=name)
        origin_ns = time.monotonic_ns()
        region = cls(shm, layout, tick_ns, origin_ns, owner=True)
        region._poke_header(_H_MAGIC, SEGMENT_MAGIC)
        region._poke_header(_H_VERSION, SEGMENT_VERSION)
        region._poke_header(_H_NCPUS, ncpus)
        region._poke_header(_H_BUFFER_WORDS, buffer_words)
        region._poke_header(_H_NUM_BUFFERS, num_buffers)
        region._poke_header(_H_TICK_NS, tick_ns)
        region._poke_header(_H_CLOCK_ORIGIN, origin_ns)
        if start_anchors:
            mask = TraceMask()
            mask.enable_all()
            clock = clock if clock is not None else region.clock()
            for cpu in range(ncpus):
                TraceLogger(region.control(cpu), mask, clock).start()
        return region

    @classmethod
    def attach(cls, name: str) -> "ShmTraceRegion":
        """Attach to an existing segment by name and validate its header.

        Refused with :class:`~repro.core.lane.UnsupportedByteOrder` on a
        big-endian host.
        """
        check_byteorder()
        shm = _attach_segment(name)
        header_bytes = 8 * HEADER_WORDS
        if shm.size < header_bytes:
            shm.close()
            raise ShmFormatError(
                f"segment {name!r} holds {shm.size} bytes, too few for "
                f"a header")
        view = cast_words(shm.buf[:header_bytes])
        try:
            header = view.tolist()
        finally:
            view.release()
        magic = header[_H_MAGIC]
        if magic != SEGMENT_MAGIC:
            shm.close()
            raise ShmFormatError(
                f"segment {name!r} is not a trace region "
                f"(magic {magic:#x})")
        if header[_H_VERSION] != SEGMENT_VERSION:
            shm.close()
            raise ShmFormatError(
                f"segment {name!r} has unsupported version "
                f"{header[_H_VERSION]}")
        layout = ShmLayout(
            ncpus=header[_H_NCPUS],
            buffer_words=header[_H_BUFFER_WORDS],
            num_buffers=header[_H_NUM_BUFFERS],
        )
        if shm.size < layout.segment_bytes:
            shm.close()
            raise ShmFormatError(
                f"segment {name!r} holds {shm.size} bytes, geometry "
                f"needs {layout.segment_bytes}")
        return cls(shm, layout, header[_H_TICK_NS], header[_H_CLOCK_ORIGIN],
                   owner=False)

    def close(self) -> None:
        """Detach from the segment (idempotent; keeps the segment alive).

        Releases the lanes this attach bound once no other attach of
        the process holds them, then the word view every store, word and
        logger of this attach indexes: any of them used afterwards
        raises ``ValueError``.
        """
        if self._closed:
            return
        self._closed = True
        for cpu, lane in self._bound.items():
            lane.owner.release(lane, self.owner_word(cpu))
        self._bound.clear()
        self._owned.clear()
        self.words.release()
        self.seglock.close()
        self.shm.close()

    def unlink(self) -> None:
        """Destroy the segment system-wide (idempotent)."""
        try:
            self.shm.unlink()
        except FileNotFoundError:
            pass
        self.seglock.unlink_sidecar()

    @staticmethod
    def cleanup(name: str) -> bool:
        """Best-effort destroy-by-name; True if a segment was removed.

        The belt-and-braces path for tests and supervisors: reclaims a
        segment whose owner was SIGKILLed before it could unlink.
        """
        try:
            shm = _attach_segment(name)
        except (FileNotFoundError, ShmFormatError):
            return False
        try:
            shm.unlink()
        except FileNotFoundError:
            return False
        finally:
            shm.close()
        SegmentLock(name).unlink_sidecar()
        return True

    def __enter__(self) -> "ShmTraceRegion":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
        if self.owner:
            self.unlink()

    # -- raw header access ----------------------------------------------
    def _poke_header(self, word: int, value: int) -> None:
        self.words[word] = value

    def _peek_header(self, word: int) -> int:
        return self.words[word]

    def set_done(self) -> None:
        """Raise the done flag: writers have quiesced, collectors finish."""
        store = self.segment_store
        while True:
            cur = self.words[_H_FLAGS]
            if cur & FLAG_DONE:
                return
            if store.cas(_H_FLAGS, cur, cur | FLAG_DONE):
                return

    def is_done(self) -> bool:
        return bool(self._peek_header(_H_FLAGS) & FLAG_DONE)

    # -- protocol views --------------------------------------------------
    def clock(self) -> SharedShmClock:
        return SharedShmClock(self.clock_origin_ns, self.tick_ns)

    def lane_store(self, cpu: int) -> LaneStore:
        """The store ``cpu``'s lane is written through from this attach:
        thread-locked once the lane is claimed (:meth:`claim`), the
        fcntl-locked :attr:`segment_store` otherwise."""
        return self._owned.get(cpu, self.segment_store)

    def index_word(self, cpu: int) -> LaneWord:
        return LaneWord(self.lane_store(cpu), self.layout.index_word(cpu))

    def owner_word(self, cpu: int) -> LaneWord:
        """The lane's owner word; always under the full segment lock."""
        return LaneWord(self.segment_store, self.layout.owner_word(cpu))

    def claim(self, cpu: int, *, owner_word: Optional[LaneWord] = None
              ) -> Lane:
        """Bind ``cpu``'s lane to this process for this attach.

        Idempotent per attach, and one claim per process however many
        attaches bind the lane.  Raises
        :class:`~repro.shm.lanes.ShmLaneBusy` if another live process
        owns it.  From then on :meth:`lane_store` is a store under the
        segment's thread lock alone.  ``owner_word`` substitutes the
        word the claim CASes (the model checker's stepped one).
        """
        owner = self.lane_owner or LaneOwner.current()
        with self._bound_guard:
            lane = self._bound.get(cpu)
            if lane is None or lane.owner is not owner:
                lane = owner.claim(self, cpu, owner_word)
                self._bound[cpu] = lane
                store = LaneStore(self.words, self.seglock.thread_lock)
                lane.stores.add(store)
                self._owned[cpu] = store
            return lane

    def control(self, cpu: int, *, mode: Mode = "flight",
                store: Optional[LaneStore] = None) -> TraceControl:
        """A :class:`TraceControl` over ``cpu``'s lane of the segment.

        Defaults to flight mode: a cross-process writer has no local
        collector — the collector process infers completed buffers from
        the shared index instead, so nothing writer-side may depend on
        in-process completion callbacks.  ``store`` substitutes
        :meth:`lane_store` (the model checker's stepped store).
        """
        return TraceControl(
            cpu=cpu,
            buffer_words=self.layout.buffer_words,
            num_buffers=self.layout.num_buffers,
            mode=mode,
            store=store if store is not None else self.lane_store(cpu),
            base=self.layout.cpu_base(cpu),
        )

    def logger(
        self,
        cpu: int,
        *,
        mask: Optional[TraceMask] = None,
        clock=None,
        registry: Optional[EventRegistry] = None,
        mode: Mode = "flight",
        fresh_anchor: bool = True,
    ) -> TraceLogger:
        """A ready-to-log :class:`TraceLogger` bound to one CPU.

        This *is* the writer-process API: attach by name, bind a CPU
        (:meth:`claim`, which may raise
        :class:`~repro.shm.lanes.ShmLaneBusy`), log.  Attaching
        processes must not call ``start()`` — the creator already
        anchored buffer 0.  They do get a fresh full-width timestamp
        anchor, though: a writer can attach
        arbitrarily long after the creator's buffer-0 anchor, and a
        forward gap of 2^31 clock ticks inside one buffer would
        otherwise read as a backwards wrap (``fresh_anchor=False``
        opts out for callers that manage anchoring themselves).
        """
        self.claim(cpu)
        if mask is None:
            mask = TraceMask()
            mask.enable_all()
        logger = TraceLogger(
            self.control(cpu, mode=mode),
            mask,
            clock if clock is not None else self.clock(),
            registry=registry,
        )
        if fresh_anchor:
            logger.log_timestamp_anchor()
        return logger
