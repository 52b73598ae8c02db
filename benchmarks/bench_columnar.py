"""Columnar analytics: what the column tools cost on a contended trace.

Four aggregation paths are timed, mirroring the paper's figures: the
Figure 6 PC-sample histogram, the Figure 7 lock-contention table, the
Figure 5 listing selection, and the §4.5 scheduler statistics — plus the
records -> ``ColumnarTrace`` decode they all start from.

This file used to time each tool against a per-event scalar twin and
assert ">= 3x"; the twins are gone from ``src/`` (one implementation per
tool), so there is no ratio left to measure here.  Identity is asserted
where the references live: ``tests/tools/test_columnar_tools.py`` holds
each tool to its per-event walk in ``tests/tools/reference.py``, and
``tests/core/test_columnar.py`` / ``repro.check`` hold the decoder to
``repro.check.oracle.reference_decode``.  What is gated is the pipeline
benchmark's ``postmortem`` workload (``core.columnar.decode_ns_per_event``,
``tools.*_ms``); the timings here are printed, not gated.
"""

import gc
import time

import pytest

from repro.core.columnar import ColumnarTraceReader, as_batch
from repro.core.registry import default_registry
from result_tables import write_result
from repro.tools.listing import event_listing
from repro.tools.lockstats import lock_statistics
from repro.tools.pcprofile import pc_profile
from repro.tools.schedstats import sched_statistics
from repro.workloads import run_contention

LISTING_NAMES = ["TRC_LOCK_CONTEND_START", "TRC_PROC_CTX_SWITCH"]


def _timeit(fn, repeats=3):
    """Best-of-N wall time with the GC paused during the timed region."""
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


def _build(ncpus=8, iterations=120, pc_sample_period=500):
    kernel, facility, _ = run_contention(
        ncpus=ncpus, workers_per_cpu=2, iterations=iterations,
        pc_sample_period=pc_sample_period)
    trace = ColumnarTraceReader(registry=default_registry()) \
        .decode_records(facility.snapshot())
    as_batch(trace)  # build the SoA columns outside the timed regions
    return kernel, trace


@pytest.fixture(scope="module")
def workload():
    return _build()


def test_columnar_tool_timings(benchmark, workload):
    """Every aggregation path produces a report; the table records what
    each costs."""
    kernel, trace = workload
    sym = kernel.symbols()
    rows = []
    for label, fn in [
        ("pcprofile (fig 6)", lambda: pc_profile(trace, sym.pc_names)),
        ("lockstats (fig 7)", lambda: lock_statistics(trace)),
        ("listing select (fig 5)",
         lambda: event_listing(trace, names=LISTING_NAMES)),
        ("schedstats (§4.5)", lambda: sched_statistics(trace).per_cpu),
    ]:
        seconds, report = _timeit(fn)
        assert report, f"{label}: empty report"
        rows.append((label, seconds))

    lines = [f"columnar tool aggregation over {len(as_batch(trace))} events",
             f"{'path':<24} {'time':>10}"]
    for label, seconds in rows:
        lines.append(f"{label:<24} {seconds * 1e3:>8.1f}ms")
    write_result("columnar_tools", "\n".join(lines))

    benchmark(lambda: pc_profile(trace, sym.pc_names))


def test_columnar_decode(benchmark):
    """Records -> ``ColumnarTrace`` on the quick harness workload."""
    _, facility, _ = run_contention(
        ncpus=4, workers_per_cpu=2, iterations=60, pc_sample_period=1_000)
    records = facility.snapshot()
    reg = default_registry()
    seconds, trace = _timeit(lambda: ColumnarTraceReader(registry=reg)
                             .decode_records(records))
    events = len(as_batch(trace))
    assert events
    empty = sum(not rec.words.any() for rec in records)
    write_result(
        "columnar_decode",
        f"records -> ColumnarTrace, {len(records)} buffers ({empty} of them "
        f"never written), {events} events\n"
        f"in-process decode {seconds * 1e3:.1f} ms "
        f"({seconds * 1e9 / events:.0f} ns/event, "
        f"{seconds * 1e6 / len(records):.1f} us/buffer)")
    benchmark(lambda: ColumnarTraceReader(registry=reg)
              .decode_records(records))
