"""The locking logger — the baseline the lockless algorithm replaces.

LTT retained a locking option after adopting K42's technology (§4.1):
it "disables interrupts and process-state transitions, though slower,
provides a greater likelihood that events will not be garbled".  This
implementation holds one lock across the entire reserve/log/commit
sequence, optionally simulating the interrupt-disable cost, and may be
shared by all CPUs over a single control structure — the classic shared
global trace buffer that the per-CPU design eliminated.

It reuses :class:`~repro.core.buffers.TraceControl` so the exact same
readers and tools consume its output; only the synchronization strategy
differs, making the lockless-vs-locking benchmarks a pure ablation.
"""

from __future__ import annotations

import threading
from typing import Optional, Sequence

from repro.core.buffers import TraceControl
from repro.core.constants import (
    EXTENDED_FILLER_LENGTH,
    MAX_EVENT_WORDS,
    TIMESTAMP_MASK,
    WORD_MASK,
)
from repro.core.header import pack_header
from repro.core.logger import EventTooLargeError
from repro.core.majors import ControlMinor, Major
from repro.core.mask import TraceMask
from repro.core.registry import EventRegistry
from repro.core.timestamps import ClockSource


class LockingTraceLogger:
    """Logs events under a single lock held across the whole operation.

    ``irq_disable_iters`` spins briefly inside the critical section to
    model the interrupt-disable/enable cost of the original LTT scheme
    in wall-clock benchmarks.
    """

    def __init__(
        self,
        control: TraceControl,
        mask: TraceMask,
        clock: ClockSource,
        registry: Optional[EventRegistry] = None,
        commit_counts: bool = True,
        lock: Optional[threading.Lock] = None,
        irq_disable_iters: int = 0,
        cpu: Optional[int] = None,
    ) -> None:
        self.control = control
        self.mask = mask
        self.clock = clock
        self.registry = registry
        self.commit_counts = commit_counts
        self.lock = lock if lock is not None else threading.Lock()
        self.irq_disable_iters = irq_disable_iters
        self.cpu = cpu if cpu is not None else control.cpu

    def log0(self, major: int, minor: int) -> bool:
        return self.log_words(major, minor, ())

    def log1(self, major: int, minor: int, w0: int) -> bool:
        return self.log_words(major, minor, (w0,))

    def log2(self, major: int, minor: int, w0: int, w1: int) -> bool:
        return self.log_words(major, minor, (w0, w1))

    def log3(self, major: int, minor: int, w0: int, w1: int, w2: int) -> bool:
        return self.log_words(major, minor, (w0, w1, w2))

    def log_words(self, major: int, minor: int, data: Sequence[int] = ()) -> bool:
        if not (self.mask.value >> major) & 1:
            return False
        return self._log_unmasked(major, minor, data)

    def start(self) -> None:
        """Log the anchor for buffer 0 (mirrors TraceLogger.start)."""
        with self.lock:
            self._write_anchor_inline()
            self._write_inline(Major.CONTROL, ControlMinor.BUFFER_START, (0,))

    # ------------------------------------------------------------------
    def _log_unmasked(self, major: int, minor: int, data: Sequence[int]) -> bool:
        ctl = self.control
        length = len(data) + 1
        if length > MAX_EVENT_WORDS or length > ctl.buffer_words:
            raise EventTooLargeError(f"event of {length} words too large")
        with self.lock:
            acc = 0
            for i in range(self.irq_disable_iters):  # modelled irq-off cost
                acc += i
            index = self._reserve_locked(length)
            self._write_locked(index, self.clock.now(self.cpu),
                               major, minor, data)
        return True

    def _reserve_locked(self, length: int) -> int:
        """Reserve under the lock; handles boundary fillers inline.

        Loops because starting a new buffer writes anchor events, after
        which the requested event may again cross a boundary.  The lock
        excludes every other writer of the lane, so the index and booked
        words are plain stores.
        """
        ctl = self.control
        mem = ctl.mem
        bw = ctl.buffer_words
        while True:
            old = mem[ctl.index_at]
            used = old & (bw - 1)
            if used == 0 and old > 0 and mem[ctl.booked_at] < old // bw:
                # Exact fill: previous event ended on the boundary.
                self._start_buffer_locked(old // bw)
                ctl.stats_exact_boundary += 1
                continue
            if used + length > bw:
                rem = bw - used
                ts = self.clock.now(self.cpu) & TIMESTAMP_MASK
                pos = ctl.trace_at + (old & ctl.index_mask)
                if rem <= MAX_EVENT_WORDS:
                    mem[pos] = pack_header(
                        ts, rem, Major.CONTROL, ControlMinor.FILLER
                    )
                else:
                    mem[pos] = pack_header(
                        ts, EXTENDED_FILLER_LENGTH,
                        Major.CONTROL, ControlMinor.FILLER_EXT,
                    )
                    mem[pos + 1] = rem
                seq = old // bw
                if self.commit_counts:
                    ctl.commit(seq, rem)
                ctl.stats_fillers += 1
                ctl.stats_filler_words += rem
                mem[ctl.index_at] = old + rem
                self._start_buffer_locked(seq + 1)
                continue
            mem[ctl.index_at] = old + length
            return old

    def _start_buffer_locked(self, seq: int) -> None:
        ctl = self.control
        mem = ctl.mem
        if mem[ctl.booked_at] >= seq:
            return
        mem[ctl.booked_at] = seq
        slot = ctl.slot_of(seq)
        # No committed reset: the generation tag in TraceControl.commit
        # resets the recycled slot's count at the first commit instead.
        ctl.complete_buffer(seq - 1)
        mem[ctl.slot_seq_at + slot] = seq
        if ctl.zero_ahead:
            nxt = ctl.slot_of(seq + 1)
            if nxt != slot:
                ctl.zero_slot(nxt)
        # Anchor events for the new buffer (re-entrant: we already hold
        # the lock, so write them inline).
        self._write_anchor_inline()
        self._write_inline(Major.CONTROL, ControlMinor.BUFFER_START, (seq,))

    def _write_anchor_inline(self) -> None:
        """Write the timestamp anchor from a single clock read, so the
        header's 32-bit stamp and the full data word correspond exactly."""
        ts = self.clock.now(self.cpu)
        self._write_locked(self._advance_locked(2), ts,
                           Major.CONTROL, ControlMinor.TIMESTAMP_ANCHOR,
                           (ts,))

    def _write_inline(self, major: int, minor: int, data: Sequence[int]) -> None:
        """Write one event while already holding the lock."""
        index = self._advance_locked(len(data) + 1)
        self._write_locked(index, self.clock.now(self.cpu),
                           major, minor, data)

    def _advance_locked(self, length: int) -> int:
        """Bump the index by ``length`` with no boundary check (the
        anchors of a fresh buffer always fit); returns the old index."""
        mem = self.control.mem
        at = self.control.index_at
        old = mem[at]
        mem[at] = old + length
        return old

    def _write_locked(self, index: int, ts: int, major: int, minor: int,
                      data: Sequence[int]) -> None:
        """Write header + data at ``index`` and commit them."""
        ctl = self.control
        mem = ctl.mem
        length = len(data) + 1
        pos = ctl.trace_at + (index & ctl.index_mask)
        mem[pos] = pack_header(ts & TIMESTAMP_MASK, length, major, minor)
        for w in data:
            pos += 1
            mem[pos] = w & WORD_MASK
        if self.commit_counts:
            ctl.commit(ctl.buffer_of(index), length)
        ctl.stats_events_logged += 1
        ctl.stats_words_logged += length
