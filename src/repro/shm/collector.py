"""The collector process: drains the shared ring into trace files.

Writers attached to an :class:`~repro.shm.region.ShmTraceRegion` run in
flight mode — no writer keeps completed buffers in its heap, because
nothing in one writer's heap is visible to anyone else.  The collector
reads them from the shared state instead: :class:`ShmCollector` is the
one consumer of completed buffers, :class:`~repro.core.buffers.Collector`,
over the segment's per-CPU lanes.  It infers completion from each index,
gates emission on the committed counts, and counts lapped buffers as
dropped: the same data-loss accounting an in-process write-out
:class:`~repro.core.buffers.TraceControl` keeps, because it is the same
collector.  It only ever reads the segment.

What this module adds is the segment: :class:`ShmCollector` builds the
lanes from a region's layout, and :meth:`ShmCollector.drain_to` polls
until the region's done flag rises, then finalizes.
"""

from __future__ import annotations

import time
from typing import Optional

from repro.core.buffers import Collector, DrainStats, LaneAt
from repro.core.writer import TraceFileWriter
from repro.shm.region import ShmTraceRegion


class ShmCollector(Collector):
    """Read-only drainer of one region's per-CPU rings.

    One collector instance per region.  The records it produces are
    ordinary :class:`~repro.core.buffers.BufferRecord` objects — feed
    them to :func:`~repro.core.writer.save_records`, the stream readers,
    the columnar paths, anything.
    """

    def __init__(self, region: ShmTraceRegion, lag: int = 1) -> None:
        lay = region.layout
        super().__init__(
            [(cpu, region.words, LaneAt.of(lay.cpu_base(cpu),
                                           lay.num_buffers))
             for cpu in range(lay.ncpus)],
            lay.buffer_words, lay.num_buffers, lag)
        self.region = region

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
