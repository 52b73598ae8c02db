"""OS-process entry points: real writers, a real collector, one segment.

This is where the reproduction finally runs the paper's scenario for
real: N independent OS processes attach the shared trace region by name,
bind one CPU's buffers each, and log through the unchanged lockless
protocol while a separate collector process drains completed buffers to
a trace file.  No locks are held across reserve/log/commit — the only
synchronization is the compare-and-store inside the shm atomics, exactly
as on the in-process path.

The entry functions are module-level so they survive the ``spawn`` start
method (children re-import this module); everything they need travels as
picklable arguments.  Writers log the same deterministic payloads the
model checker uses (:func:`expected_payloads`), so tests can verify the
drained trace is complete event-by-event.
"""

from __future__ import annotations

import contextlib
import multiprocessing
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.core.majors import Major
from repro.shm.collector import ShmCollector
from repro.shm.region import ShmTraceRegion

#: How long a writer waits at the start barrier for its peers.  A peer
#: that fails before the barrier aborts it, so this only bounds the wait
#: on one that died without running its handler (SIGKILL).
BARRIER_TIMEOUT_S = 30.0


def expected_payloads(writers: int, events: int,
                      data_words: int) -> List[List[List[int]]]:
    """The data words writer ``w`` logs: same identity-coding scheme as
    :meth:`repro.check.harness.CheckConfig.payloads`, so any decoded TEST
    event names its (writer, event, word) coordinates."""
    return [
        [
            [((w + 1) << 20) | ((k + 1) << 8) | (j + 1)
             for j in range(data_words)]
            for k in range(events)
        ]
        for w in range(writers)
    ]


def writer_main(
    name: str,
    cpu: int,
    events: int,
    data_words: int = 2,
    barrier=None,
    forever: bool = False,
) -> int:
    """One writer process: attach, bind ``cpu``, log, detach.

    ``barrier`` (a ``multiprocessing.Barrier`` over all writers) makes
    every writer start logging at once — maximum contention on the CAS.
    A writer that fails to attach or bind breaks the barrier, so its
    peers fail fast instead of waiting for it.  ``forever`` loops until
    killed, for the SIGKILL hygiene tests.  Returns the number of events
    logged (also its exit code source for callers that care).
    """
    payloads = expected_payloads(cpu + 1, events, data_words)[cpu]
    with contextlib.ExitStack() as stack:
        try:
            region = ShmTraceRegion.attach(name)
            stack.callback(region.close)
            logger = region.logger(cpu)
            if barrier is not None:
                barrier.wait(BARRIER_TIMEOUT_S)
        except BaseException:
            if barrier is not None:
                barrier.abort()
            raise
        logged = 0
        while True:
            for data in payloads:
                logger.log_words(Major.TEST, cpu + 1, data)
                logged += 1
            if not forever:
                return logged


def collector_main(
    name: str,
    out_path: str,
    stats_queue=None,
    poll_interval_s: float = 0.002,
    timeout_s: Optional[float] = 30.0,
    lag: int = 1,
) -> None:
    """The collector process: attach, drain to ``out_path`` until the
    region's done flag rises (or ``timeout_s``), report stats."""
    region = ShmTraceRegion.attach(name)
    try:
        collector = ShmCollector(region, lag=lag)
        stats = collector.drain_to_file(
            out_path, poll_interval_s=poll_interval_s, timeout_s=timeout_s)
        if stats_queue is not None:
            stats_queue.put({
                "frames": stats.frames,
                "partial_frames": stats.partial_frames,
                "dropped": stats.dropped,
                "polls": stats.polls,
                "unstable_copies": stats.unstable_copies,
                "held": stats.held,
                "next_seq": {str(c): s for c, s in stats.next_seq.items()},
            })
    finally:
        region.close()


@dataclass
class ShmWorkloadResult:
    """What one multi-process run produced."""

    trace_path: str
    segment_name: str
    writers: int
    events_per_writer: int
    data_words: int
    start_method: str
    concurrent_collector: bool
    events_total: int = 0
    collector: Dict[str, object] = field(default_factory=dict)
    elapsed_s: float = 0.0


def run_shm_workload(
    out_path: str,
    *,
    writers: int = 2,
    events: int = 500,
    data_words: int = 2,
    buffer_words: int = 256,
    num_buffers: int = 8,
    tick_ns: int = 1,
    start_method: Optional[str] = None,
    concurrent_collector: bool = True,
    poll_interval_s: float = 0.002,
    timeout_s: float = 60.0,
    lag: int = 1,
    segment_name: Optional[str] = None,
) -> ShmWorkloadResult:
    """Create a region, run N writer processes + a collector process.

    ``concurrent_collector=True`` is the real scenario: the collector
    races the writers, and the ring may lap it (drops are reported, not
    hidden).  ``False`` quiesces the writers first and sizes nothing
    differently — callers wanting a provably-complete trace combine it
    with a wrap-free geometry (``num_buffers * buffer_words`` large
    enough for every event) and assert ``collector["dropped"] == 0``.

    All exit paths close and unlink the segment: writers and collector
    attach untracked (see :func:`repro.shm.region._attach_segment`), the
    parent owns the segment and destroys it in the ``finally`` — so a
    SIGKILLed child leaks nothing and triggers no resource-tracker
    warnings.
    """
    ctx = multiprocessing.get_context(start_method)
    method = ctx.get_start_method()
    region = ShmTraceRegion.create(
        segment_name, ncpus=writers, buffer_words=buffer_words,
        num_buffers=num_buffers, tick_ns=tick_ns)
    t0 = time.perf_counter()
    procs: List[multiprocessing.Process] = []
    collector_proc: Optional[multiprocessing.Process] = None
    stats_queue = ctx.SimpleQueue()
    try:
        barrier = ctx.Barrier(writers)
        for cpu in range(writers):
            p = ctx.Process(
                target=writer_main,
                args=(region.name, cpu, events, data_words, barrier),
                name=f"shm-writer-{cpu}",
            )
            p.start()
            procs.append(p)

        def start_collector() -> multiprocessing.Process:
            cp = ctx.Process(
                target=collector_main,
                args=(region.name, out_path, stats_queue,
                      poll_interval_s, timeout_s, lag),
                name="shm-collector",
            )
            cp.start()
            return cp

        if concurrent_collector:
            collector_proc = start_collector()
        for p in procs:
            p.join(timeout_s)
        failed = [f"{p.name} " + ("did not finish" if p.is_alive()
                                  else f"exited with code {p.exitcode}")
                  for p in procs if p.is_alive() or p.exitcode != 0]
        if failed:
            raise RuntimeError("writers failed: " + "; ".join(failed))
        region.set_done()
        if collector_proc is None:
            collector_proc = start_collector()
        collector_proc.join(timeout_s)
        if collector_proc.is_alive():
            raise TimeoutError("collector did not finish")
        if collector_proc.exitcode != 0:
            raise RuntimeError(
                f"collector exited with code {collector_proc.exitcode}")
        stats = stats_queue.get() if not stats_queue.empty() else {}
        return ShmWorkloadResult(
            trace_path=out_path,
            segment_name=region.name,
            writers=writers,
            events_per_writer=events,
            data_words=data_words,
            start_method=method,
            concurrent_collector=concurrent_collector,
            events_total=writers * events,
            collector=stats,
            elapsed_s=time.perf_counter() - t0,
        )
    finally:
        for p in procs + ([collector_proc] if collector_proc else []):
            if p.is_alive():
                p.terminate()
                p.join(5.0)
        region.close()
        region.unlink()
