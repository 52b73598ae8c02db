"""Cross-process lockless logging over POSIX shared memory.

Everything before this package emulated the paper's *user-mapped*
per-CPU trace buffers inside one Python process: many threads, one
address space.  This package maps the same structures into a
:mod:`multiprocessing.shared_memory` segment so that **independent OS
processes** run the unchanged reserve/log/commit protocol
(:class:`~repro.core.logger.TraceLogger`, Figure 2) against the same
per-CPU buffers — real producers, real contention, real preemption —
while a collector process drains completed buffers into the standard
trace-file format every existing reader and tool consumes unmodified.

Pieces:

* :mod:`repro.shm.atomics` — :class:`SegmentLock` and
  :class:`SegmentStore`, compare-and-store on segment words under an
  ``fcntl`` record lock; the documented cross-process stand-in for
  PowerPC ``stwcx.``.
* :mod:`repro.shm.region` — segment layout (a header, then one
  :mod:`lane <repro.core.lane>` per CPU), create/attach-by-name,
  per-CPU :class:`~repro.core.buffers.TraceControl` views, the shared
  monotonic clock.
* :mod:`repro.shm.lanes` — lane ownership: one process binds each CPU's
  lane, and an owned lane's compare-and-store skips the ``fcntl`` lock.
* :mod:`repro.shm.collector` — the one consumer of completed buffers
  (:class:`~repro.core.buffers.Collector`) over the segment's lanes,
  draining them into :class:`~repro.core.buffers.BufferRecord` frames /
  ``.k42`` trace files.
* :mod:`repro.shm.procs` — writer/collector OS-process entry points and
  the workload runner behind ``repro-trace shm-demo``.

The model checker covers this seam with its one checked system
(:class:`repro.check.harness.CheckedSystem` with ``shm=True``): its
lanes are a segment's CPUs, its stepped store wraps their lane stores,
so the attach/drain logic is explored under adversarial interleavings
by the same invariants as the core protocol.
"""

from repro.shm.atomics import SegmentLock, SegmentStore
from repro.shm.collector import DrainStats, ShmCollector
from repro.shm.lanes import ShmLaneBusy
from repro.shm.region import SharedShmClock, ShmLayout, ShmTraceRegion
from repro.shm.procs import ShmWorkloadResult, run_shm_workload

__all__ = [
    "SegmentLock",
    "SegmentStore",
    "ShmLaneBusy",
    "ShmLayout",
    "ShmTraceRegion",
    "SharedShmClock",
    "ShmCollector",
    "DrainStats",
    "ShmWorkloadResult",
    "run_shm_workload",
]
