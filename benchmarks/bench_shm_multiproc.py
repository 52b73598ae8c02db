"""Shared-memory logging cost and cross-process drain throughput.

What the shm seam costs, measured at three scales:

* **word CAS** — one ``ShmAtomicWord.cas`` over the segment (the
  cross-process ``stwcx.`` stand-in; every reserve pays at least one);
* **single-process log** — ``log_words`` through an attached
  ``ShmTraceRegion`` logger, against the same call on process-private
  buffers (the PR-1 logger) for the segment overhead ratio;
* **multi-process workload** — N writer processes racing a live
  collector over one segment, end-to-end events/second including the
  drain to the standard trace-file format.

The multi-process figure carries process start-up and scheduler noise,
so its tolerance band is wide; the in-process figures are the stable
regression canaries.
"""

import gc
import os
import time

import pytest

from repro.core.majors import Major
from repro.core.writer import load_records
from repro.perf.report import write_result
from repro.shm import ShmTraceRegion, run_shm_workload
from repro.shm.procs import expected_payloads

N_EVENTS = int(os.environ.get("BENCH_SHM_EVENTS", "30000"))
WRITERS = 2


def _timeit(fn, repeats=3):
    best = float("inf")
    result = None
    for _ in range(repeats):
        gc.disable()
        try:
            t0 = time.perf_counter()
            result = fn()
            best = min(best, time.perf_counter() - t0)
        finally:
            gc.enable()
    gc.collect()
    return best, result


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


# ---------------------------------------------------------------------------
# Unified-harness registrations (`repro-trace bench`; `python bench_shm_multiproc.py`)
# ---------------------------------------------------------------------------
from repro.perf import benchmark as perf_bench  # noqa: E402


@perf_bench("shm.word_cas", quick=True, tolerance=0.4)
def hb_word_cas(b):
    """One successful CAS on a shared-segment word (micro-lock path)."""
    region = ShmTraceRegion.create(ncpus=1, buffer_words=64, num_buffers=4)
    try:
        word = region.index_word(0)
        start = word.load()

        def kernel():
            old = word.load()
            assert word.compare_and_store(old, old + 1)

        b(kernel)
        assert word.load() > start
    finally:
        region.close()
        region.unlink()


@perf_bench("shm.log_words", quick=True, tolerance=0.4)
def hb_log_words(b):
    """One 3-word event through an attached shm logger (reserve/log/
    commit over the segment, fcntl micro-lock and all)."""
    region = ShmTraceRegion.create(ncpus=1, buffer_words=1024,
                                   num_buffers=64)
    attached = ShmTraceRegion.attach(region.name)
    try:
        logger = attached.logger(0)
        b(lambda: logger.log_words(Major.TEST, 1, (1, 2)))
    finally:
        attached.close()
        region.close()
        region.unlink()


@perf_bench("shm.private_log_words", quick=True, tolerance=0.4)
def hb_private_log_words(b):
    """The same event on process-private buffers — the yardstick the
    shm overhead ratio is read against."""
    from repro.core.facility import TraceFacility

    fac = TraceFacility(ncpus=1, buffer_words=1024, num_buffers=64,
                        mode="flight")
    fac.enable_all()
    logger = fac.logger(0)
    b(lambda: logger.log_words(Major.TEST, 1, (1, 2)))


@perf_bench("shm.multiproc_drain", tolerance=0.9)
def hb_multiproc_drain(b):
    """Full cross-process workload: fork writers, live collector,
    drain to file.  Dominated by process start-up at quick scale —
    hence the wide band — but it is the only number that watches the
    whole seam end to end."""
    import tempfile

    events = 2000 if b.quick else 10000

    def run():
        with tempfile.TemporaryDirectory() as d:
            out = os.path.join(d, "bench.k42")
            result = run_shm_workload(
                out, writers=2, events=events, data_words=2,
                buffer_words=1024, num_buffers=64, start_method="fork")
            assert result.collector["dropped"] == 0
            return result

    b(run)
    b.note("events", 2 * events)


if __name__ == "__main__":
    import sys

    from repro.perf import module_main

    sys.exit(module_main(__name__))
