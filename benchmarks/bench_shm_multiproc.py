"""Cross-process drain throughput over shared memory.

N writer processes race a live collector over one segment: end-to-end
events/second including the drain to the standard trace-file format,
with the drained file verified complete on every CPU.  The figure
carries process start-up and scheduler noise and is printed, not gated;
the per-call costs of the seam (one segment CAS, one attached-logger
event against the process-private one) are the pipeline benchmark's
``log_shm`` workload (``shm.atomics.cas_ns``, ``shm.region.log1_ns``,
``shm.region.overhead_ratio``).
"""

import os
import time

from repro.core.majors import Major
from repro.core.writer import load_records
from result_tables import write_result
from repro.shm import run_shm_workload
from repro.shm.procs import expected_payloads

N_EVENTS = int(os.environ.get("BENCH_SHM_EVENTS", "30000"))
WRITERS = 2


def test_shm_multiproc_throughput(tmp_path):
    """End-to-end: writers + live collector, drained file complete."""
    out = str(tmp_path / "bench.k42")
    events = max(1000, N_EVENTS // WRITERS)
    t0 = time.perf_counter()
    result = run_shm_workload(
        out, writers=WRITERS, events=events, data_words=2,
        buffer_words=1024, num_buffers=64, start_method="fork")
    elapsed = time.perf_counter() - t0
    assert result.collector["dropped"] == 0, result.collector

    from repro.core.stream import TraceReader
    trace = TraceReader().decode_records(load_records(out))
    issued = expected_payloads(WRITERS, events, 2)
    for cpu in range(WRITERS):
        got = [list(e.data) for e in trace.events(cpu)
               if e.major == Major.TEST]
        assert got == issued[cpu]

    total = WRITERS * events
    write_result("shm_multiproc", "\n".join([
        f"{WRITERS} writer processes + 1 collector, {total} events",
        f"wall {elapsed:.3f}s  ({total / elapsed / 1e3:.0f} kev/s "
        f"end-to-end, incl. process start-up and drain)",
        f"collector: {result.collector['frames']} frames, "
        f"{result.collector['polls']} polls, "
        f"{result.collector['held']} held, 0 dropped",
        "drained file verified complete on every CPU",
    ]))
