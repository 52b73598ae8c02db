"""Per-processor trace memory: buffers, control structure, completion.

The trace memory of one CPU is a ring of ``num_buffers`` buffers of
``buffer_words`` 64-bit words each (§3.1).  All frequently-referenced
control state — the reservation index, the per-buffer committed counts —
lives in this per-CPU structure so that logging on different CPUs never
shares cache lines (§2, "User-mapped per-processor buffers").

The reservation ``index`` is a monotonically increasing word counter;
``index & index_mask`` (the pseudo-code's ``INDEXMASK``) confines it to
the trace memory.  Buffer *sequence* ``index // buffer_words`` increases
forever; sequence ``s`` occupies slot ``s % num_buffers``.

Two modes:

* ``writeout`` — each completed buffer is copied into a
  :class:`BufferRecord` and queued for the sink ("available to be
  written out", §3.1).
* ``flight`` — no copies; the ring overwrites itself and
  :meth:`TraceControl.snapshot` reconstructs the most recent history
  (the "flight recorder" of §4.2).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import (Deque, Iterable, Iterator, List, Literal, NamedTuple,
                    Optional, Tuple)

import numpy as np

from repro.core.constants import (
    COMMIT_COUNT_MASK,
    COMMIT_SEQ_SHIFT,
    DEFAULT_BUFFER_WORDS,
    DEFAULT_NUM_BUFFERS,
)
from repro.core.lane import (
    BOOKED,
    FIXED_WORDS,
    INDEX,
    LaneStore,
    cast_words,
    lane_words,
)

Mode = Literal["writeout", "flight"]


def _is_pow2(n: int) -> bool:
    return n > 0 and (n & (n - 1)) == 0


def decode_commit_word(seq: int, word: int) -> int:
    """Committed word count carried by a raw (generation-tagged) commit word.

    Returns the low-half count when the word's tag matches buffer ``seq``,
    else 0 — the word belongs to a different occupant of the slot (either
    the count was never started for ``seq``, or the slot has been recycled).
    Shared by :meth:`TraceControl.committed_count` and :func:`read_lane`,
    which reads the same words in a private lane, a shm segment or a
    crash dump.
    """
    if (word >> COMMIT_SEQ_SHIFT) == (seq & COMMIT_COUNT_MASK):
        return word & COMMIT_COUNT_MASK
    return 0


@dataclass
class BufferRecord:
    """A completed (or flushed-partial) trace buffer, ready for a sink."""

    cpu: int
    seq: int                 # monotonically increasing buffer sequence number
    words: np.ndarray        # uint64 words (a read-only view for mmap reads)
    committed: int           # per-buffer committed word count at completion
    fill_words: int          # words actually reserved (== len(words) unless partial)
    partial: bool = False    # True for the in-progress buffer emitted by flush()
    #: On-disk provenance of an mmap-backed payload — ``(path,
    #: payload_byte_offset, file_size, file_mtime_ns)``, stamped by the
    #: trace-file reader.  Lets the parallel decoder hand pool workers a
    #: descriptor to re-map instead of the payload bytes.  Not part of
    #: the record's value (excluded from repr/eq).
    _file_ref: Optional[Tuple[str, int, int, int]] = \
        field(default=None, repr=False, compare=False)

    def __post_init__(self) -> None:
        self.words = np.asarray(self.words, dtype=np.uint64)


#: Re-copy attempts when a laggard writer commits mid-copy.
_STABLE_COPY_TRIES = 4


class LaneAt(NamedTuple):
    """Word offsets of one lane's pieces in a view of words: the
    reservation index, the booked sequence, the committed counts, the
    slot occupants and the trace memory."""

    index: int
    booked: int
    committed: int
    slot_seq: int
    trace: int

    @classmethod
    def of(cls, base: int, num_buffers: int) -> "LaneAt":
        """The offsets of a lane (:mod:`repro.core.lane`) at word ``base``."""
        committed = base + FIXED_WORDS
        return cls(base + INDEX, base + BOOKED, committed,
                   committed + num_buffers, committed + 2 * num_buffers)


def read_lane(words, at: LaneAt, buffer_words: int, num_buffers: int,
              cpu: int, seqs: Optional[Iterable[int]] = None,
              stats=None) -> Iterator[BufferRecord]:
    """The buffers of one lane view, as :class:`BufferRecord` copies.

    ``words`` is any run of 64-bit words indexed by ``at``: a
    :class:`TraceControl`'s ``mem``, a shm segment's words, or a crash
    dump section.  With ``seqs`` None the ring is read the way the
    flight recorder reads it (§4.2): each slot's occupant word names its
    buffer, oldest first.  Occupant 0 outside slot 0 was never booked —
    a phantom, not emitted; any other occupant is emitted under the
    sequence as read, even one that maps to another slot (that is
    damage, and the crash-dump reader reports it).  Given ``seqs`` (a
    cursor's range), exactly those sequences are read, whatever their
    slots' occupant words say.

    Either way, the buffer the index is in is partial (``fill_words``
    is the words reserved in it) and is skipped while nothing is
    reserved in it; every other buffer is full, so a buffer that ended
    exactly on the boundary and was never followed by a reservation is
    full too.  Booking sequence ``b`` with zero-ahead on zeroes the slot
    of ``b + 1``, which laps ``b + 1 - num_buffers`` a buffer early: when
    that sequence's words are all zero it is not emitted.

    Each buffer is copied by the stable-copy protocol: read its
    committed word, copy the words, recheck the index, recheck the
    committed word, at most ``_STABLE_COPY_TRIES`` times.  Commits trail
    writes, so a count read before the copy never claims words the copy
    missed.  A buffer whose slot the index reserved into again during
    the read (sequence ``seq + num_buffers`` reached, and past where the
    read began) is lapped and not emitted.  Each re-copy under a racing
    commit adds one to ``stats.unstable_copies`` when ``stats`` is
    given.  A quiesced lane passes on the first try.
    """
    bw = buffer_words
    index = words[at.index]
    cur_seq = index // bw
    fill = index - cur_seq * bw
    # With one buffer (a damaged dump's geometry) booking zeroes nothing.
    zeroed = words[at.booked] + 1 - num_buffers if num_buffers > 1 else -1
    index_at, committed_at, trace_at = at.index, at.committed, at.trace
    if seqs is None:
        occupants = words[at.slot_seq:at.slot_seq + num_buffers]
        pairs = sorted([(seq, slot) for slot, seq in enumerate(occupants)
                        if seq or not slot])
        floor = index
    else:
        pairs = [(seq, seq % num_buffers) for seq in seqs]
        floor = 0
    for seq, slot in pairs:
        if seq == cur_seq and not fill:
            continue  # nothing reserved in it yet
        c_at = committed_at + slot
        start = trace_at + slot * bw
        lap_at = (seq + num_buffers) * bw
        if lap_at < floor:
            lap_at = floor
        word = words[c_at]
        tries = _STABLE_COPY_TRIES
        while True:
            # np.array copies: no view of the lane outlives the call.
            payload = np.array(words[start:start + bw], dtype=np.uint64)
            if words[index_at] > lap_at:
                payload = None
                break
            recheck = words[c_at]
            if recheck == word:
                break
            word = recheck
            if stats is not None:
                stats.unstable_copies += 1
            tries -= 1
            if not tries:
                break
        if payload is None or (seq == zeroed and not payload.any()):
            continue
        partial = seq == cur_seq
        yield BufferRecord(cpu, seq, payload, decode_commit_word(seq, word),
                           fill if partial else bw, partial)


class TraceControl:
    """Per-CPU trace control structure and trace memory.

    All of it is one lane of words (:mod:`repro.core.lane`) at word
    offset ``base`` of ``store``: the reservation index, the booked
    sequence, the generation-tagged committed counts, the slot
    occupancy and the trace memory.  By default the store is a private
    one-lane :class:`~repro.core.lane.LaneStore`; :mod:`repro.shm` passes
    a lane of its segment, and the schedule-exploring model checker
    (:mod:`repro.check`) a stepped store whose every access is an
    explicit scheduling point.  The ``*_at`` attributes are the word
    offsets of each piece in ``store``.

    ``zero_ahead`` enables the paper's optional "cheaply zero-filling a
    buffer before use" mitigation (§3.1): unwritten holes then decode as
    definitively-invalid zero headers.  It is only safe where the
    buffer-start bookkeeping cannot be preempted for long — a real
    kernel's disabled context, or the deterministic simulator.  A
    user-level thread descheduled between deciding to zero and zeroing
    could destroy live events, so the default is off.
    """

    def __init__(
        self,
        cpu: int = 0,
        buffer_words: int = DEFAULT_BUFFER_WORDS,
        num_buffers: int = DEFAULT_NUM_BUFFERS,
        mode: Mode = "writeout",
        zero_ahead: bool = False,
        max_pending: Optional[int] = None,
        store: Optional[LaneStore] = None,
        base: int = 0,
    ) -> None:
        if not _is_pow2(buffer_words):
            raise ValueError("buffer_words must be a power of two")
        if not _is_pow2(num_buffers) or num_buffers < 2:
            raise ValueError("num_buffers must be a power of two >= 2")
        if mode not in ("writeout", "flight"):
            raise ValueError(f"unknown mode {mode!r}")
        self.cpu = cpu
        self.buffer_words = buffer_words
        self.num_buffers = num_buffers
        self.total_words = buffer_words * num_buffers
        self.index_mask = self.total_words - 1
        self.mode: Mode = mode
        self.zero_ahead = zero_ahead
        self.max_pending = max_pending

        need = lane_words(buffer_words, num_buffers)
        if store is None:
            store = LaneStore.private(need)
        elif len(store) < base + need:
            raise ValueError(
                f"a lane at word {base} needs {need} words; the store "
                f"holds {len(store)}")
        self.store = store
        self.mem = store.mem
        self._cas = store.cas
        #: Word offsets in ``store``: the reservation index the lockless
        #: algorithm CASes on, the highest buffer sequence whose start
        #: bookkeeping has been claimed, the per-buffer committed counts
        #: (generation-tagged, see :func:`decode_commit_word`), the
        #: sequence occupying each slot, and the trace memory itself.
        self.index_at = base + INDEX
        self.booked_at = base + BOOKED
        self.committed_at = base + FIXED_WORDS
        self.slot_seq_at = self.committed_at + num_buffers
        self.trace_at = self.slot_seq_at + num_buffers

        #: Completed buffer sequences awaiting write-out
        #: (writeout mode only).  Payloads are copied out only once the
        #: queue exceeds ``num_buffers - 2`` — an emulated write-out
        #: daemon with slack, giving preempted writers almost a full
        #: ring's time to finish filling in their events ("the process
        #: will run again soon and finish filling in the event before
        #: another entity notices", §3.1) while still copying before the
        #: ring can recycle the slot.
        self.completed: Deque[tuple] = deque()
        # A deque: max_pending eviction drops from the front, and
        # list.pop(0) is O(n) per drop where popleft is O(1).
        self._written: Deque[BufferRecord] = deque()
        self._high_water = max(1, num_buffers - 2)

        # Statistics (plain ints: updated under the GIL, read for reporting;
        # exactness is not required and K42 kept these unsynchronized too).
        self.stats_fillers = 0
        self.stats_filler_words = 0
        self.stats_buffers_completed = 0
        self.stats_dropped_buffers = 0
        self.stats_events_logged = 0
        self.stats_words_logged = 0
        self.stats_cas_retries = 0
        self.stats_exact_boundary = 0

    def index(self) -> int:
        """The reservation index now."""
        return self.mem[self.index_at]

    @property
    def lane_at(self) -> LaneAt:
        """This lane's word offsets, for :func:`read_lane`."""
        return LaneAt(self.index_at, self.booked_at, self.committed_at,
                      self.slot_seq_at, self.trace_at)

    def _read(self, seqs=None) -> List[BufferRecord]:
        return list(read_lane(self.mem, self.lane_at, self.buffer_words,
                              self.num_buffers, self.cpu, seqs))

    # -- geometry helpers --------------------------------------------------
    def slot_of(self, seq: int) -> int:
        return seq % self.num_buffers

    def buffer_of(self, index: int) -> int:
        """Buffer sequence number containing ``index``."""
        return index // self.buffer_words

    # -- committed counts (traceCommit) ------------------------------------
    def commit(self, seq: int, length: int) -> None:
        """traceCommit: add ``length`` to buffer ``seq``'s committed count.

        Lock-free CAS loop on the slot's generation-tagged word.  The
        first committer of a new occupant installs the new tag with its
        own length, resetting the recycled slot implicitly; this is what
        makes the reset safe without ordering it against the buffer-start
        bookkeeping (the schedule checker found that a booking-time
        ``store(slot, 0)`` can erase commits from writers that entered
        the buffer before the booker ran).  A commit whose buffer has
        already been recycled (a writer descheduled for a whole ring
        trip) is dropped — its buffer is gone, and polluting the new
        occupant's count would turn one lost event into a falsely
        garbled buffer.
        """
        at = self.committed_at + seq % self.num_buffers
        tag = seq & COMMIT_COUNT_MASK
        mem = self.mem
        while True:
            cur = mem[at]
            cur_tag = cur >> COMMIT_SEQ_SHIFT
            if cur_tag == tag:
                new = cur + length
            elif ((tag - cur_tag) & COMMIT_COUNT_MASK) <= COMMIT_COUNT_MASK // 2:
                # Tag is older than ours (mod 2**32): first commit for the
                # new occupant resets the count.
                new = (tag << COMMIT_SEQ_SHIFT) | length
            else:
                return  # our buffer was recycled; the commit is moot
            if self._cas(at, cur, new):
                return

    def committed_count(self, seq: int) -> int:
        """Committed words recorded for buffer ``seq`` (0 if recycled)."""
        return decode_commit_word(
            seq, self.mem[self.committed_at + seq % self.num_buffers])

    # -- completion --------------------------------------------------------
    def complete_buffer(self, seq: int) -> None:
        """Queue buffer ``seq`` for write-out.

        Called by the (single) thread that claimed the start-of-buffer
        bookkeeping for ``seq + 1``; in flight mode the ring is the
        recorder and nothing is queued.
        """
        self.stats_buffers_completed += 1
        if self.mode != "writeout":
            return
        self.completed.append(seq)
        while len(self.completed) > self._high_water:
            self._writeout_one()

    def _writeout_one(self) -> None:
        """Copy the oldest completed buffer out of the ring.

        A buffer the ring already lapped counts as dropped — the
        write-out side failed to keep up, the same data-loss mode a real
        system has.
        """
        try:
            seq = self.completed.popleft()
        except IndexError:
            return
        record = self._read((seq,))
        if not record:
            self.stats_dropped_buffers += 1
            return
        self._written.extend(record)
        if self.max_pending is not None:
            while len(self._written) > self.max_pending:
                self._written.popleft()
                self.stats_dropped_buffers += 1

    def drain(self) -> List[BufferRecord]:
        """Write out everything completed so far and return it."""
        while self.completed:
            self._writeout_one()
        out = list(self._written)
        self._written.clear()
        return out

    def flush(self) -> List[BufferRecord]:
        """Drain completed buffers plus those never completed.

        Only meaningful once logging has quiesced.  A buffer is completed
        when the next one is booked, so what the write-out queue never
        saw runs from the booked sequence to the index: the current
        partial buffer, marked so readers know not to expect a filler at
        its end, or a buffer whose last event ended exactly on the
        boundary with no reservation after it — otherwise its events
        would be lost.
        """
        records = self.drain()
        cur_seq = self.index() // self.buffer_words
        records.extend(self._read(range(self.mem[self.booked_at],
                                        cur_seq + 1)))
        return records

    def snapshot(self) -> List[BufferRecord]:
        """Flight-recorder snapshot: the most recent buffers, oldest first.

        Reconstructs records straight from the ring (:func:`read_lane`);
        the currently-active buffer is included as partial.  A slot the
        index never reached holds no event and is not emitted.  Usable
        in either mode (in writeout mode it duplicates data already
        queued).
        """
        return self._read()

    def zero_slot(self, slot: int) -> None:
        start = self.trace_at + slot * self.buffer_words
        self.mem[start:start + self.buffer_words] = cast_words(
            bytes(8 * self.buffer_words))
