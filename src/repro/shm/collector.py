"""The collector process: drains the shared ring into trace files.

Writers attached to an :class:`~repro.shm.region.ShmTraceRegion` run in
flight mode — they have no process-local write-out queue, because a
queue in one writer's heap is invisible to everyone else.  Instead the
collector *infers* completion from the shared state, the way K42's
write-out daemon watched the per-CPU control structures: buffer sequence
``s`` on a CPU is complete once the reservation index has moved past it
(``index // buffer_words > s``).  No writer-side cooperation, no locks —
the collector only ever reads.

The index alone cannot prove the buffer's *words* are there — it
advances at reserve time, before the copy-in.  The completion signal
the protocol actually provides is the committed count (§3.1's validity
gate), so a live :meth:`poll` emits a full buffer only once its count
covers ``buffer_words``: commits trail writes in program order, and the
count is read **before** the payload copy, so a covered copy can never
contain unwritten words.  A buffer whose count never covers it (its
writer was preempted forever, or killed) is held back — writers get
"almost a full ring's time" to finish (§3.1) — until either

* the ring laps the collector — detected by re-reading the index after
  the copy; a lapped buffer is counted dropped, exactly the data-loss
  accounting the in-process write-out daemon keeps; or
* :meth:`finalize` runs at quiescence (the region's done flag, or the
  drain timeout): it emits everything regardless of coverage, so a
  killed writer's torn buffer still reaches the reader's heuristics,
  flagged by its short count rather than silently dropped.

``lag`` additionally holds back the most recent completed buffers from
live polls; :meth:`finalize` drops it and emits the final partial
buffers the same way :meth:`TraceControl.flush` does.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional

from repro.core.buffers import BufferRecord, LaneAt, read_lane
from repro.core.writer import TraceFileWriter
from repro.shm.region import ShmTraceRegion


@dataclass
class DrainStats:
    """What one collector saw over its lifetime."""

    frames: int = 0            # records emitted (full + partial)
    partial_frames: int = 0    # of which partial (finalize only)
    dropped: int = 0           # buffers lost to ring lapping
    polls: int = 0             # sweeps over the CPUs
    unstable_copies: int = 0   # copies re-done under a racing commit
    #: distinct buffers whose emission was deferred for an uncovered
    #: committed count — each (cpu, seq) counts once, no matter how many
    #: polls re-observed it, so the stat is comparable across poll rates
    held: int = 0
    next_seq: Dict[int, int] = field(default_factory=dict)


class ShmCollector:
    """Read-only drainer of one region's per-CPU rings.

    One collector instance per region; it keeps a ``next_seq`` cursor
    per CPU so every buffer sequence is emitted at most once.  The
    records it produces are ordinary :class:`BufferRecord` objects —
    feed them to :func:`~repro.core.writer.save_records`, the stream
    readers, the columnar paths, anything.
    """

    def __init__(self, region: ShmTraceRegion, lag: int = 1) -> None:
        if lag < 0:
            raise ValueError("lag must be >= 0")
        self.region = region
        self.lag = lag
        self.stats = DrainStats()
        lay = region.layout
        self._next_seq = {cpu: 0 for cpu in range(lay.ncpus)}
        #: The segment's words and each CPU's lane offsets in them.
        self._words = region.words
        self._at = [LaneAt.of(lay.cpu_base(cpu), lay.num_buffers)
                    for cpu in range(lay.ncpus)]
        # Per CPU, the sequence last counted on stats.held: a slow
        # writer holds the same buffer across many polls, but it is one
        # deferred emission, not one per poll.
        self._held: Dict[int, int] = {}

    # -- sweeps ------------------------------------------------------------
    def _read(self, cpu: int, seqs: range) -> Iterator[BufferRecord]:
        lay = self.region.layout
        return read_lane(self._words, self._at[cpu], lay.buffer_words,
                         lay.num_buffers, cpu, seqs, self.stats)

    def poll(self, lag: Optional[int] = None, *,
             force: bool = False) -> List[BufferRecord]:
        """One sweep: emit every newly-completed buffer on every CPU.

        ``force`` drops the committed-count gate: buffers are emitted
        covered or not.  Only :meth:`finalize` should force — a live
        poll that forces can capture a buffer mid-write and emit it as
        garbage that the quiesced ring would have emitted clean.
        """
        lag = self.lag if lag is None else lag
        lay = self.region.layout
        bw, nb = lay.buffer_words, lay.num_buffers
        stats = self.stats
        records: List[BufferRecord] = []
        stats.polls += 1
        mem = self._words
        for cpu, at in enumerate(self._at):
            cur_seq = mem[at.index] // bw
            next_seq = self._next_seq[cpu]
            # Ring already lapped the cursor: the oldest sequences are
            # unrecoverable — account for them and move the cursor up.
            oldest_alive = cur_seq - nb + 1
            if next_seq < oldest_alive:
                stats.dropped += oldest_alive - next_seq
                next_seq = oldest_alive
            stop = max(next_seq, cur_seq - lag)
            before = len(records)
            for rec in self._read(cpu, range(next_seq, stop)):
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
            self._next_seq[cpu] = stats.next_seq[cpu] = stop
        return records

    def finalize(self) -> List[BufferRecord]:
        """Final sweep after writers quiesce: no lag, plus partials.

        Mirrors :meth:`TraceControl.flush`: the in-progress buffer (if
        any words are reserved in it) is emitted as a partial record.
        The exact-boundary case flush special-cases — a full buffer whose
        completion bookkeeping never ran — needs nothing here, because
        completion is inferred from the index, not from the booking.
        """
        records = self.poll(lag=0, force=True)
        bw = self.region.layout.buffer_words
        for cpu, at in enumerate(self._at):
            seq, fill = divmod(self._words[at.index], bw)
            if fill == 0 or self._next_seq[cpu] > seq:
                continue
            partial = list(self._read(cpu, range(seq, seq + 1)))
            if not partial:
                self.stats.dropped += 1
                continue
            records.extend(partial)
            self.stats.frames += 1
            self.stats.partial_frames += 1
            self._next_seq[cpu] = self.stats.next_seq[cpu] = seq + 1
        return records

    # -- the long-running drain loop ---------------------------------------
    def drain_to(self, writer: TraceFileWriter, *,
                 poll_interval_s: float = 0.002,
                 timeout_s: Optional[float] = None) -> DrainStats:
        """Poll until the region's done flag rises, then finalize.

        Writes every record straight to ``writer`` so memory stays flat
        regardless of trace size.  ``timeout_s`` bounds the loop for
        supervisors that cannot guarantee the flag (a writer-killed
        scenario); on timeout the collector finalizes with whatever the
        ring holds — trailing garbage is the committed counts' problem,
        which is the point.
        """
        deadline = None if timeout_s is None else \
            time.monotonic() + timeout_s
        while True:
            for rec in self.poll():
                writer.write_record(rec)
            if self.region.is_done():
                break
            if deadline is not None and time.monotonic() >= deadline:
                break
            time.sleep(poll_interval_s)
        for rec in self.finalize():
            writer.write_record(rec)
        return self.stats

    def drain_to_file(self, path: str, **kw) -> DrainStats:
        """Open ``path``, :meth:`drain_to` it, and flush to disk."""
        with open(path, "wb") as fh:
            return self.drain_to(
                TraceFileWriter(fh, self.region.layout.buffer_words), **kw)

