"""Deliberately broken loggers that validate the checker itself.

A model checker that never finds anything proves nothing: these mutants
re-introduce, one at a time, the races the lockless protocol exists to
prevent.  Each is a :class:`~repro.core.logger.TraceLogger` subclass
overriding exactly one decision, and each must be caught by the checker
with a minimized, replayable counterexample (the test suite enforces
this).  They document, executably, *why* each line of Figure 2 is the
way it is:

``non-atomic-reserve``
    Advances the reservation index with a load + store instead of
    compare-and-store.  Two writers can read the same index and be
    handed the same words — caught as a double write.

``commit-before-copy``
    Runs ``traceCommit`` before writing the header and data.  The
    committed count then covers words that are not there yet, so a
    reader that trusts a covered buffer can decode garbage — caught by
    the reader-soundness invariant.

``stale-timestamp``
    Reads the clock once before the CAS retry loop instead of inside
    it.  A competitor that reserves first with a later stamp breaks
    timestamp monotonicity in reservation order — the exact failure the
    paper's "re-obtain the timestamp" argument (§3.1) rules out.

``reset-on-book``
    Resets the new buffer's committed count during start-of-buffer
    bookkeeping (how this codebase itself once worked).  A writer that
    reserved and committed into the new buffer before the booker runs
    has its commit erased, falsely garbling a clean buffer — found by
    this checker, fixed by the generation-tagged commit words.

``skip-filler-commit``
    Writes the boundary filler but never commits its length.  The
    buffer's committed count comes up short, so a perfectly clean
    buffer is reported garbled — no preemption needed at all.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Optional, Tuple

from repro.core.constants import (
    EXTENDED_FILLER_LENGTH,
    MAX_EVENT_WORDS,
    TIMESTAMP_MASK,
    WORD_MASK,
)
from repro.core.header import pack_header
from repro.core.logger import TraceLogger
from repro.core.majors import ControlMinor, Major


class NonAtomicReserveLogger(TraceLogger):
    """Reserves with load + store: the index bump is no longer atomic."""

    def _reserve(self, length: int) -> Tuple[int, int]:
        mem = self._mem
        at = self._index_at
        bw = self.control.buffer_words
        while True:
            old = mem[at]
            used = old & (bw - 1)
            if used + length > bw:
                self._reserve_slow(old, length)
                continue
            ts = self.clock.now(self.cpu)
            # BUG: plain store; a competitor between the load and this
            # store is handed the same words.
            mem[at] = old + length
            if used == 0 and old > 0:
                self._maybe_book(old // bw, exact=True)
            return old, ts


class CommitBeforeCopyLogger(TraceLogger):
    """Commits the event length before writing header and data."""

    def _log_unmasked(self, major, minor, data) -> bool:
        ctl = self.control
        length = len(data) + 1
        index, ts = self._reserve(length)
        # BUG: the committed count now covers unwritten words; a reader
        # that trusts committed == fill reads garbage.
        if self.commit_counts:
            ctl.commit(index // ctl.buffer_words, length)
        mem = self._mem
        pos = self._trace_at + (index & ctl.index_mask)
        mem[pos] = (
            ((ts & TIMESTAMP_MASK) << 32)
            | (length << 22)
            | (major << 16)
            | (minor & 0xFFFF)
        )
        for w in data:
            pos += 1
            mem[pos] = w & WORD_MASK
        ctl.stats_events_logged += 1
        ctl.stats_words_logged += length
        return True


class StaleTimestampLogger(TraceLogger):
    """Reads the clock once, outside the CAS retry loop."""

    def _reserve(self, length: int) -> Tuple[int, int]:
        mem = self._mem
        at = self._index_at
        bw = self.control.buffer_words
        # BUG: hoisted out of the loop; by the time the CAS wins, a
        # competitor may already have logged a later timestamp.
        ts = self.clock.now(self.cpu)
        while True:
            old = mem[at]
            used = old & (bw - 1)
            if used + length > bw:
                self._reserve_slow(old, length)
                continue
            if self._cas(at, old, old + length):
                if used == 0 and old > 0:
                    self._maybe_book(old // bw, exact=True)
                return old, ts
            self.control.stats_cas_retries += 1


class ResetOnBookLogger(TraceLogger):
    """Resets the committed count during buffer-start bookkeeping."""

    def _maybe_book(self, seq: int, exact: bool) -> None:
        ctl = self.control
        mem = self._mem
        while True:
            cur = mem[ctl.booked_at]
            if cur >= seq:
                return
            if self._cas(ctl.booked_at, cur, seq):
                break
        slot = ctl.slot_of(seq)
        # BUG (the original seed): writers that reserved into buffer
        # ``seq`` before the booker ran may already have committed;
        # this store erases their counts and falsely garbles the buffer.
        mem[ctl.committed_at + slot] = 0
        for s in range(cur, seq):
            ctl.complete_buffer(s)
        mem[ctl.slot_seq_at + slot] = seq
        if exact:
            ctl.stats_exact_boundary += 1
        self._log_anchor(seq)


class SkipFillerCommitLogger(TraceLogger):
    """Writes boundary fillers but never commits their length."""

    def _reserve_slow(self, old: int, length: int) -> None:
        ctl = self.control
        bw = ctl.buffer_words
        used = old & (bw - 1)
        if used == 0:
            return
        rem = bw - used
        ts = self.clock.now(self.cpu) & TIMESTAMP_MASK
        if not self._cas(self._index_at, old, old + rem):
            ctl.stats_cas_retries += 1
            return
        mem = self._mem
        pos = self._trace_at + (old & ctl.index_mask)
        if rem <= MAX_EVENT_WORDS:
            mem[pos] = pack_header(ts, rem, Major.CONTROL, ControlMinor.FILLER)
        else:
            mem[pos] = pack_header(
                ts, EXTENDED_FILLER_LENGTH,
                Major.CONTROL, ControlMinor.FILLER_EXT,
            )
            mem[pos + 1] = rem
        seq = old // bw
        # BUG: filler words are reserved and written but never
        # committed, so the buffer's count always comes up short.
        ctl.stats_fillers += 1
        ctl.stats_filler_words += rem
        self._maybe_book(seq + 1, exact=False)


@dataclass
class MutantSpec:
    """A registered mutant: its class, what it breaks, how to catch it."""

    name: str
    cls: type
    summary: str
    #: Invariant ids a counterexample for this mutant may legitimately
    #: trip (the checker stops at the first violation it meets).
    expected: Tuple[str, ...]
    #: Config overrides that make the bug reachable quickly.
    config: Dict[str, int]


MUTANTS: Dict[str, MutantSpec] = {
    spec.name: spec
    for spec in (
        MutantSpec(
            "non-atomic-reserve",
            NonAtomicReserveLogger,
            "index bumped with load+store instead of CAS",
            ("double-write",),
            {"writers": 2, "events": 1, "preemption_bound": 1},
        ),
        MutantSpec(
            "commit-before-copy",
            CommitBeforeCopyLogger,
            "traceCommit runs before the event words are written",
            ("reader-garble-in-covered-buffer", "reader-fabricated-event",
             "final-fabricated-event", "torn-not-flagged"),
            {"writers": 2, "events": 1, "kills": 1,
             "preemption_bound": 2},
        ),
        MutantSpec(
            "stale-timestamp",
            StaleTimestampLogger,
            "timestamp read once before the CAS retry loop",
            ("timestamp-order", "clean-decode-anomaly"),
            {"writers": 2, "events": 1, "preemption_bound": 1},
        ),
        MutantSpec(
            "reset-on-book",
            ResetOnBookLogger,
            "committed count reset during buffer-start bookkeeping",
            ("clean-decode-anomaly", "partial-commit-mismatch"),
            {"writers": 2, "events": 2, "preemption_bound": 2},
        ),
        MutantSpec(
            "skip-filler-commit",
            SkipFillerCommitLogger,
            "boundary filler written but never committed",
            ("clean-decode-anomaly", "partial-commit-mismatch"),
            {"writers": 1, "events": 2, "data_words": 2,
             "preemption_bound": 0},
        ),
    )
}


def make_logger(
    mutant: Optional[str],
    control,
    mask,
    clock,
    logger_factory: Optional[Callable] = None,
) -> TraceLogger:
    """Build the system under test: the real logger, or a mutant."""
    if logger_factory is not None:
        return logger_factory(control, mask, clock)
    if mutant is None:
        return TraceLogger(control, mask, clock)
    spec = MUTANTS.get(mutant)
    if spec is None:
        raise KeyError(
            f"unknown mutant {mutant!r}; known: {sorted(MUTANTS)}"
        )
    return spec.cls(control, mask, clock)
