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
``repro.check.oracle.reference_decode``.  The four ``columnar.*`` harness
entries below are what ``BENCH_baseline.json`` gates.
"""

import gc
import time

import pytest

from repro.core.columnar import ColumnarTraceReader, as_batch
from repro.core.registry import default_registry
from repro.perf.report import write_result
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


# ---------------------------------------------------------------------------
# Unified-harness registrations (`repro-trace bench`; `python bench_columnar.py`)
# ---------------------------------------------------------------------------
from functools import lru_cache  # noqa: E402

from repro.perf import benchmark as perf_bench  # noqa: E402


@lru_cache(maxsize=1)
def _harness_workload(quick):
    if quick:
        return _build(ncpus=4, iterations=60, pc_sample_period=1_000)
    return _build()


@perf_bench("columnar.pcprofile", quick=True, tolerance=0.4)
def hb_pcprofile(b):
    """Figure 6 histogram on the columnar path (mask + np.unique)."""
    kernel, columnar = _harness_workload(b.quick)
    sym = kernel.symbols()
    hist = b(lambda: pc_profile(columnar, sym.pc_names))
    assert hist
    b.note("samples", sum(c for c, _ in hist))


@perf_bench("columnar.lockstats", quick=True, tolerance=0.4)
def hb_lockstats(b):
    """Figure 7 contention table: columnar context + CONTEND-only replay."""
    _, columnar = _harness_workload(b.quick)
    stats = b(lambda: lock_statistics(columnar))
    assert stats
    b.note("groups", len(stats))


@perf_bench("columnar.listing", quick=True, tolerance=0.4)
def hb_listing(b):
    """Figure 5 selection as boolean masks over the merged batch."""
    _, columnar = _harness_workload(b.quick)
    events = b(lambda: event_listing(columnar, names=LISTING_NAMES))
    assert events
    b.note("selected", len(events))


@perf_bench("columnar.decode", quick=True, tolerance=0.4)
def hb_decode(b):
    """Records -> ColumnarTrace, the SoA analogue of decode_batched."""
    kernel, facility, _ = run_contention(
        ncpus=2 if b.quick else 4, workers_per_cpu=2,
        iterations=40 if b.quick else 80, pc_sample_period=1_000)
    records = facility.snapshot()
    reg = default_registry()
    trace = b(lambda: ColumnarTraceReader(registry=reg)
              .decode_records(records))
    b.note("events", len(as_batch(trace)))


if __name__ == "__main__":
    import sys

    from repro.perf import module_main

    sys.exit(module_main(__name__))
