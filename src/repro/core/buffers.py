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

Completed buffers have one consumer, :class:`Collector`: a cursor per
lane that turns every buffer the index has moved past into a
:class:`BufferRecord` ("available to be written out", §3.1), counting
what the ring lapped before the cursor got there.  The shm collector
(:mod:`repro.shm.collector`) is this collector over a segment's lanes.
A :class:`TraceControl` is a ``flight`` ring — no copies; the ring
overwrites itself and :meth:`TraceControl.snapshot` reconstructs the
most recent history (the "flight recorder" of §4.2) — or a
``writeout`` one: the same ring plus a collector over its one lane.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from typing import (Dict, Iterable, Iterator, List, Literal, NamedTuple,
                    Optional, Sequence, Tuple)

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


@dataclass
class DrainStats:
    """What one collector saw over its lifetime."""

    frames: int = 0            # records emitted (full + partial)
    partial_frames: int = 0    # of which partial (finalize only)
    dropped: int = 0           # buffers lost to ring lapping
    polls: int = 0             # sweeps over the lanes
    unstable_copies: int = 0   # copies re-done under a racing commit
    #: distinct buffers whose emission was deferred for an uncovered
    #: committed count — each (cpu, seq) counts once, no matter how many
    #: polls re-observed it, so the stat is comparable across poll rates
    held: int = 0
    #: the cursor: per lane's CPU, the next sequence to emit
    next_seq: Dict[int, int] = field(default_factory=dict)


#: One lane a :class:`Collector` reads: its CPU, a view of words that
#: holds it, and its offsets in them.
Lane = Tuple[int, object, LaneAt]


class Collector:
    """The consumer of completed buffers: a read-only cursor per lane.

    ``lanes`` share one geometry.  Buffer ``s`` of a lane is complete
    once its index has moved past it, the way K42's write-out daemon
    watched the per-CPU control structures: no writer cooperates, and
    no lock is taken.  The cursor (``stats.next_seq``) emits each
    sequence at most once, as :func:`read_lane` copies.

    The index advances at reserve time, before the copy-in, so it cannot
    prove a buffer's words are there; its committed count can (§3.1's
    validity gate).  A gated :meth:`poll` emits a full buffer only once
    its count, read before the copy, covers ``buffer_words``.  A buffer
    whose writer was preempted or killed is held back until the ring
    laps the cursor (counted in ``stats.dropped``) or a forced poll —
    :meth:`finalize` at quiescence, or a consumer that cannot wait —
    emits it flagged by its short count.  ``lag`` holds back the most
    recent completed buffers as well.
    """

    def __init__(self, lanes: Sequence[Lane], buffer_words: int,
                 num_buffers: int, lag: int = 1) -> None:
        if lag < 0:
            raise ValueError("lag must be >= 0")
        self.lanes = list(lanes)
        self.buffer_words = buffer_words
        self.num_buffers = num_buffers
        self.lag = lag
        self.stats = DrainStats(
            next_seq={cpu: 0 for cpu, _words, _at in self.lanes})
        # Per CPU, the sequence last counted on stats.held: a slow
        # writer holds the same buffer across many polls, but it is one
        # deferred emission, not one per poll.
        self._held: Dict[int, int] = {}

    def poll(self, lag: Optional[int] = None, *,
             force: bool = False) -> List[BufferRecord]:
        """One sweep: emit every newly-completed buffer of every lane.

        ``force`` drops the committed-count gate: buffers are emitted
        covered or not.  Only a consumer that cannot wait should force —
        a live poll that forces can capture a buffer mid-write and emit
        it as garbage that the quiesced ring would have emitted clean.
        """
        lag = self.lag if lag is None else lag
        bw, nb = self.buffer_words, self.num_buffers
        stats = self.stats
        cursor = stats.next_seq
        records: List[BufferRecord] = []
        stats.polls += 1
        for cpu, words, at in self.lanes:
            index = words[at.index]
            cur_seq = index // bw
            next_seq = cursor[cpu]
            # Ring already lapped the cursor: the oldest sequences are
            # unrecoverable — account for them and move the cursor up.
            # A slot is lapped once the index reserves into it again
            # (read_lane's rule), so an index exactly on a boundary has
            # not yet lapped the buffer ``num_buffers`` behind it.
            oldest_alive = (index - 1) // bw - nb + 1
            if next_seq < oldest_alive:
                stats.dropped += oldest_alive - next_seq
                next_seq = oldest_alive
            stop = max(next_seq, cur_seq - lag)
            before = len(records)
            for rec in read_lane(words, at, bw, nb, cpu,
                                 range(next_seq, stop), stats):
                if rec.committed < bw and not force:
                    # Reserved past it, but not every event inside is
                    # committed yet: its writer is still (or was, when
                    # it died) filling in.  Hold; emission stays in
                    # sequence order, so later buffers wait too.
                    if self._held.get(cpu) != rec.seq:
                        self._held[cpu] = rec.seq
                        stats.held += 1
                    stop = rec.seq
                    break
                records.append(rec)
            emitted = len(records) - before
            stats.frames += emitted
            # Whatever the reader skipped below the stop was lapped.
            stats.dropped += stop - next_seq - emitted
            cursor[cpu] = stop
        return records

    def finalize(self) -> List[BufferRecord]:
        """Final sweep after writers quiesce: no lag, no gate, plus each
        in-progress buffer with words reserved in it, as a partial
        record (readers then expect no filler at its end).  The cursor
        stays on the in-progress buffer: it is not complete, so a later
        sweep emits it again, as it then is.

        A full buffer whose completion bookkeeping never ran (its last
        event ended exactly on the boundary) needs nothing special:
        completion is inferred from the index, not from the booking.
        """
        records = self.poll(lag=0, force=True)
        stats = self.stats
        for cpu, words, at in self.lanes:
            seq, fill = divmod(words[at.index], self.buffer_words)
            if fill == 0:
                continue
            partial = list(read_lane(words, at, self.buffer_words,
                                     self.num_buffers, cpu,
                                     range(seq, seq + 1), stats))
            if not partial:
                stats.dropped += 1
                continue
            records.extend(partial)
            stats.frames += 1
            stats.partial_frames += 1
        return records


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
        self.zero_ahead = zero_ahead

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

        #: Writeout mode's consumer (None in flight mode): a
        #: :class:`Collector` over this one lane.  The booker of a new
        #: buffer moves the cursor once more than ``num_buffers - 2`` (at
        #: least one) completed buffers wait — an emulated write-out
        #: daemon with slack, giving preempted writers almost a full
        #: ring's time to finish filling in their events ("the process
        #: will run again soon and finish filling in the event before
        #: another entity notices", §3.1) while still copying before the
        #: ring can recycle the slot.  A booker cannot wait for a writer,
        #: so it forces: a buffer short of commits goes out flagged by
        #: its count.
        self.collector = (Collector([(cpu, self.mem, self.lane_at)],
                                    buffer_words, num_buffers)
                          if mode == "writeout" else None)
        self._slack = max(1, num_buffers - 2)
        #: What the bookers copied, until :meth:`drain` or :meth:`flush`.
        self._copied: List[BufferRecord] = []
        self._copy_lock = threading.Lock()  # one cursor, many bookers

        # Statistics (plain ints: updated under the GIL, read for reporting;
        # exactness is not required and K42 kept these unsynchronized too).
        self.stats_fillers = 0
        self.stats_filler_words = 0
        self.stats_buffers_completed = 0
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
        """Count buffer ``seq`` complete; in writeout mode, copy out what
        has waited past the slack.

        Called by the (single) thread that claimed the start-of-buffer
        bookkeeping for ``seq + 1``.  Whether to copy is decided from
        the cursor alone, without reading a lane word; in flight mode
        the ring is the recorder and nothing is copied.
        """
        self.stats_buffers_completed += 1
        collector = self.collector
        if collector is None:
            return
        if seq - collector.stats.next_seq[self.cpu] >= self._slack:
            with self._copy_lock:
                self._copied += collector.poll(self._slack, force=True)

    def drain(self) -> List[BufferRecord]:
        """Write out every buffer completed so far and return them
        (writeout mode; a flight ring returns none)."""
        if self.collector is None:
            return []
        with self._copy_lock:
            records = self._copied + self.collector.poll(0, force=True)
            self._copied = []
        return records

    def flush(self) -> List[BufferRecord]:
        """Drain completed buffers plus those never completed.

        Only meaningful once logging has quiesced.  In writeout mode this
        is the collector's :meth:`~Collector.finalize`.  A flight ring
        has no cursor: it returns what runs from the booked sequence to
        the index — the current partial buffer, or a buffer whose last
        event ended exactly on the boundary with no reservation after it.
        """
        if self.collector is None:
            cur_seq = self.index() // self.buffer_words
            return self._read(range(self.mem[self.booked_at], cur_seq + 1))
        with self._copy_lock:
            records = self._copied + self.collector.finalize()
            self._copied = []
        return records

    def snapshot(self) -> List[BufferRecord]:
        """Flight-recorder snapshot: the most recent buffers, oldest first.

        Reconstructs records straight from the ring (:func:`read_lane`);
        the currently-active buffer is included as partial.  A slot the
        index never reached holds no event and is not emitted.  Usable
        in either mode (in writeout mode it duplicates data the collector
        copies).
        """
        return self._read()

    def zero_slot(self, slot: int) -> None:
        start = self.trace_at + slot * self.buffer_words
        self.mem[start:start + self.buffer_words] = cast_words(
            bytes(8 * self.buffer_words))
