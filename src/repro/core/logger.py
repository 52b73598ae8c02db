"""Lockless variable-length event logging (the paper's Figure 2).

``traceReserve``/``traceLog``/``traceCommit`` translated faithfully:

* a writer reserves space by atomically advancing the per-CPU index with
  compare-and-store; the winner owns the reserved words and fills them in
  with **no lock held**;
* the timestamp is (re)obtained inside the retry loop, which — as the
  paper argues — guarantees monotonically increasing timestamps in
  reservation order on each CPU;
* when an event would cross the buffer boundary the slow path claims the
  remainder with the same CAS, writes a filler event over it, and the
  buffer-start bookkeeping (completion of the previous buffer, committed
  count reset, zero-ahead, timestamp anchor) is claimed exactly once per
  buffer through a CAS on ``booked_seq``;
* ``traceCommit`` adds the event length to the per-buffer committed
  count so that write-out can detect buffers garbled by writers that
  were preempted or killed mid-log (§3.1).

A writer preempted between reserve and log leaves a hole — exactly the
failure mode §3.1 analyses.  Nothing here prevents it (that would need
locking); the reader's validity heuristics and the committed counts
detect it.
"""

from __future__ import annotations

from typing import Optional, Sequence, Tuple, Union

from repro.core.buffers import TraceControl
from repro.core.constants import (
    EXTENDED_FILLER_LENGTH,
    MAX_EVENT_WORDS,
    TIMESTAMP_MASK,
    WORD_MASK,
)
from repro.core.header import pack_header
from repro.core.majors import ControlMinor, Major
from repro.core.mask import TraceMask
from repro.core.packing import pack_values
from repro.core.registry import EventRegistry, EventSpec
from repro.core.timestamps import ClockSource


class EventTooLargeError(ValueError):
    """Raised when an event cannot fit in a single trace buffer."""


class TraceLogger:
    """Per-CPU lockless logger bound to one :class:`TraceControl`.

    In K42 the equivalent state is mapped into every address space so
    that applications, libraries, servers and the kernel all log through
    the same per-CPU structures without system calls.  The logger binds
    its lane's words, their offsets and the store's compare-and-store
    once; every load and trace-word store after that is one indexing
    operation on ``_mem``.
    """

    def __init__(
        self,
        control: TraceControl,
        mask: TraceMask,
        clock: ClockSource,
        registry: Optional[EventRegistry] = None,
        commit_counts: bool = True,
    ) -> None:
        self.control = control
        self.mask = mask
        self.clock = clock
        self.registry = registry
        self.commit_counts = commit_counts
        self.cpu = control.cpu
        #: Largest event: bounded by the 10-bit length field and the buffer.
        self._max_words = min(MAX_EVENT_WORDS, control.buffer_words)
        self._mem = control.mem
        self._cas = control.store.cas
        self._index_at = control.index_at
        self._trace_at = control.trace_at

    # ------------------------------------------------------------------
    # Fast-path logging API (per-major constant-arity macros, §3.2)
    # ------------------------------------------------------------------
    def log0(self, major: int, minor: int) -> bool:
        """Log a header-only event (no data words)."""
        if not (self.mask.value >> major) & 1:
            return False
        return self._log_unmasked(major, minor, ())

    def log1(self, major: int, minor: int, w0: int) -> bool:
        if not (self.mask.value >> major) & 1:
            return False
        return self._log_unmasked(major, minor, (w0,))

    def log2(self, major: int, minor: int, w0: int, w1: int) -> bool:
        if not (self.mask.value >> major) & 1:
            return False
        return self._log_unmasked(major, minor, (w0, w1))

    def log3(self, major: int, minor: int, w0: int, w1: int, w2: int) -> bool:
        if not (self.mask.value >> major) & 1:
            return False
        return self._log_unmasked(major, minor, (w0, w1, w2))

    def log_words(self, major: int, minor: int, data: Sequence[int] = ()) -> bool:
        """Log an event whose data words are already packed."""
        if not (self.mask.value >> major) & 1:
            return False
        return self._log_unmasked(major, minor, data)

    def log_event(self, spec: Union[str, EventSpec], *values) -> bool:
        """Log a registered event by name or spec, packing ``values``
        according to its layout string (the generic, non-constant-length
        path of §3.2)."""
        if isinstance(spec, str):
            if self.registry is None:
                raise ValueError("log_event by name requires a registry")
            found = self.registry.by_name(spec)
            if found is None:
                raise KeyError(f"unknown event name {spec!r}")
            spec = found
        if not (self.mask.value >> spec.major) & 1:
            return False
        words = pack_values(spec.layout, values)
        return self._log_unmasked(spec.major, spec.minor, words)

    # ------------------------------------------------------------------
    # Core algorithm
    # ------------------------------------------------------------------
    def _log_unmasked(self, major: int, minor: int, data: Sequence[int]) -> bool:
        """traceLog: reserve, write header + data, commit.

        Header packing and slot arithmetic are inlined — this is the
        system's hottest path and per-call overhead is the product the
        paper spent a page of assembler on.
        """
        ctl = self.control
        length = len(data) + 1  # +1 for the header word
        if length > self._max_words:
            raise EventTooLargeError(
                f"event of {length} words exceeds the {self._max_words}-word "
                "limit (10-bit length field, buffer size)"
            )
        index, ts = self._reserve(length)
        mem = self._mem
        pos = self._trace_at + (index & ctl.index_mask)
        # Inline pack_header (fields are in range by construction here).
        mem[pos] = (
            ((ts & TIMESTAMP_MASK) << 32)
            | (length << 22)
            | (major << 16)
            | (minor & 0xFFFF)
        )
        for w in data:
            pos += 1
            mem[pos] = w & WORD_MASK
        if self.commit_counts:
            ctl.commit(index // ctl.buffer_words, length)
        ctl.stats_events_logged += 1
        ctl.stats_words_logged += length
        return True

    def _reserve(self, length: int) -> Tuple[int, int]:
        """traceReserve: CAS-advance the index; returns (index, full_ts).

        The timestamp is re-read on every retry so that timestamps are
        monotonic in reservation order (Figure 2 and §3.1).  The full
        64-bit value is returned; callers truncate to 32 bits for the
        header, and the anchor event stores the full value as its data
        word — from the *same* clock read, so reconstruction is exact.
        """
        mem = self._mem
        cas = self._cas
        at = self._index_at
        bw = self.control.buffer_words
        bmask = bw - 1
        clock_now = self.clock.now
        cpu = self.cpu
        while True:
            old = mem[at]
            used = old & bmask
            if used + length > bw:
                self._reserve_slow(old, length)
                continue
            ts = clock_now(cpu)
            if cas(at, old, old + length):
                if used == 0 and old > 0:
                    # First reservation in a buffer entered by exact fill:
                    # claim the start-of-buffer bookkeeping.
                    self._maybe_book(old // bw, exact=True)
                return old, ts
            self.control.stats_cas_retries += 1

    def _reserve_slow(self, old: int, length: int) -> None:
        """traceReserveSlow: filler event + move to the next buffer.

        Claims the remainder of the current buffer with the same CAS the
        fast path uses; the winner writes a filler spanning it so events
        never cross the alignment boundary (§3.2).  Win or lose, the
        caller retries the fast path.
        """
        ctl = self.control
        bw = ctl.buffer_words
        used = old & (bw - 1)
        if used == 0:
            return  # raced: buffer already advanced under us
        rem = bw - used
        ts = self.clock.now(self.cpu) & TIMESTAMP_MASK
        if not self._cas(self._index_at, old, old + rem):
            ctl.stats_cas_retries += 1
            return
        mem = self._mem
        pos = self._trace_at + (old & ctl.index_mask)
        if rem <= MAX_EVENT_WORDS:
            # A filler is just a header whose length is the remainder.
            mem[pos] = pack_header(ts, rem, Major.CONTROL, ControlMinor.FILLER)
        else:
            # Remainder too large for the 10-bit length field: extended
            # filler carries the true span in its single data word.
            mem[pos] = pack_header(
                ts, EXTENDED_FILLER_LENGTH, Major.CONTROL, ControlMinor.FILLER_EXT
            )
            mem[pos + 1] = rem
        seq = old // bw
        if self.commit_counts:
            ctl.commit(seq, rem)
        ctl.stats_fillers += 1
        ctl.stats_filler_words += rem
        self._maybe_book(seq + 1, exact=False)

    def _maybe_book(self, seq: int, exact: bool) -> None:
        """Claim and perform start-of-buffer bookkeeping for ``seq``.

        Exactly one thread wins the CAS on ``booked_seq`` per buffer.  The
        winner completes the previous buffer(s), zeroes the buffer *ahead*
        (so unwritten holes decode as invalid, one of §3.1's proposed
        mitigations), and logs the full-width timestamp anchor that random
        access needs.  The new buffer's committed count is *not* reset
        here: writers can reserve into buffer ``seq`` the moment the index
        crosses the boundary — before the booker runs — so a store of 0
        here can erase their commits and falsely garble a clean buffer
        (found by the schedule checker, :mod:`repro.check`).  The reset is
        instead folded into :meth:`TraceControl.commit` via the
        generation tag.
        """
        ctl = self.control
        mem = self._mem
        at = ctl.booked_at
        while True:
            cur = mem[at]
            if cur >= seq:
                return
            if self._cas(at, cur, seq):
                break
        slot = ctl.slot_of(seq)
        # Normally completes just seq-1; the range covers transitions whose
        # booker was preempted before claiming (see DESIGN.md §3.2 notes).
        for s in range(cur, seq):
            ctl.complete_buffer(s)
        mem[ctl.slot_seq_at + slot] = seq
        if exact:
            ctl.stats_exact_boundary += 1
        end = (seq + 1) * ctl.buffer_words
        if ctl.zero_ahead and mem[self._index_at] < end:
            # Only zero the slot ahead while the index is still inside
            # buffer ``seq``: a booker descheduled long enough for the
            # index to advance must not destroy live data.  (The residual
            # check-to-zero window is the per-buffer-count heuristic's
            # job to catch, exactly as §3.1 frames it.)
            nxt = ctl.slot_of(seq + 1)
            if nxt != slot and mem[self._index_at] < end:
                ctl.zero_slot(nxt)
        self._log_anchor(seq)

    def _log_anchor(self, seq: int) -> None:
        """Log the 64-bit timestamp anchor + buffer-sequence marker.

        These are infrastructure events: they bypass the mask so random
        access works regardless of which majors the user enabled.
        """
        self.log_timestamp_anchor()
        self._log_unmasked(Major.CONTROL, ControlMinor.BUFFER_START, (seq,))

    def log_timestamp_anchor(self) -> None:
        """Log a standalone full-width timestamp anchor (§3.2).

        The anchor's header timestamp and its full-width data word come
        from one clock read (via ``_reserve``), so a reader can
        reconstruct absolute times exactly.  Loggers that start on an
        already-anchored buffer long after its anchor was written — a
        writer process attaching to a shared-memory region seconds
        after its creation — must call this before their first event:
        a forward gap of 2^31 ticks or more is indistinguishable from
        a backwards wrap in the 32-bit header timestamps, and only a
        fresh full-width anchor lets the readers bridge it.
        """
        ctl = self.control
        index, ts = self._reserve(2)
        pos = self._trace_at + (index & ctl.index_mask)
        self._mem[pos] = pack_header(
            ts & TIMESTAMP_MASK, 2, Major.CONTROL, ControlMinor.TIMESTAMP_ANCHOR
        )
        self._mem[pos + 1] = ts & WORD_MASK
        if self.commit_counts:
            ctl.commit(ctl.buffer_of(index), 2)
        ctl.stats_events_logged += 1
        ctl.stats_words_logged += 2

    def start(self) -> None:
        """Log the anchor for the very first buffer (sequence 0)."""
        self._log_anchor(0)


class NullTraceLogger:
    """The "compiled out" configuration (§2, goal 6).

    Presents the same API as :class:`TraceLogger` but contains no trace
    statements at all — used to measure the zero-impact configuration.
    """

    def __init__(self, *args, **kwargs) -> None:
        pass

    def log0(self, major: int, minor: int) -> bool:
        return False

    def log1(self, major: int, minor: int, w0: int) -> bool:
        return False

    def log2(self, major: int, minor: int, w0: int, w1: int) -> bool:
        return False

    def log3(self, major: int, minor: int, w0: int, w1: int, w2: int) -> bool:
        return False

    def log_words(self, major: int, minor: int, data: Sequence[int] = ()) -> bool:
        return False

    def log_event(self, spec, *values) -> bool:
        return False

    def start(self) -> None:
        pass

    def log_timestamp_anchor(self) -> None:
        pass
