"""Columnar analytics: structure-of-arrays batches vs the scalar walk.

The tentpole claim under test: porting the analysis tools from
per-event Python loops to mask-selects over ``EventBatch`` columns
speeds the tool-aggregation paths up by >= 3x on a contended
multiprocessor trace — while staying bit-identical to the scalar
reference, which every timed comparison below asserts.

Four aggregation paths are measured, mirroring the paper's figures:
the Figure 6 PC-sample histogram, the Figure 7 lock-contention table,
the Figure 5 listing selection, and the §4.5 scheduler statistics.
"""

import gc
import time

import pytest

from repro.core.columnar import ColumnarTraceReader, as_batch
from repro.core.registry import default_registry
from repro.core.stream import TraceReader
from repro.perf.report import write_result
from repro.tools.listing import event_listing
from repro.tools.lockstats import lock_statistics
from repro.tools.pcprofile import pc_profile
from repro.tools.schedstats import sched_statistics
from repro.workloads import run_contention

MIN_SPEEDUP = 3.0


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
    records = facility.snapshot()
    reg = default_registry()
    scalar = TraceReader(registry=reg).decode_records(records)
    columnar = ColumnarTraceReader(registry=reg).decode_records(records)
    as_batch(columnar)  # build the SoA columns outside the timed regions
    return kernel, scalar, columnar


@pytest.fixture(scope="module")
def workload():
    return _build()


def _listing_key(events):
    return [(e.cpu, e.seq, e.offset, tuple(e.data), e.time) for e in events]


def _cases(kernel, scalar, columnar):
    sym = kernel.symbols()
    names = ["TRC_LOCK_CONTEND_START", "TRC_PROC_CTX_SWITCH"]
    return [
        ("pcprofile (fig 6)",
         lambda: pc_profile(scalar, sym.pc_names, columnar=False),
         lambda: pc_profile(columnar, sym.pc_names, columnar=True),
         lambda a, b: a == b),
        ("lockstats (fig 7)",
         lambda: lock_statistics(scalar, columnar=False),
         lambda: lock_statistics(columnar, columnar=True),
         lambda a, b: a == b),
        ("listing select (fig 5)",
         lambda: event_listing(scalar, names=names, columnar=False),
         lambda: event_listing(columnar, names=names, columnar=True),
         lambda a, b: _listing_key(a) == _listing_key(b)),
        ("schedstats (§4.5)",
         lambda: sched_statistics(scalar, columnar=False),
         lambda: sched_statistics(columnar, columnar=True),
         lambda a, b: a == b),
    ]


def test_columnar_tool_speedups(benchmark, workload):
    """Every ported aggregation path: >= 3x over the scalar walk, with
    bit-identical output."""
    kernel, scalar, columnar = workload
    n = len(as_batch(columnar))
    rows = []
    for label, scalar_fn, columnar_fn, same in _cases(kernel, scalar,
                                                      columnar):
        t_s, ref = _timeit(scalar_fn)
        t_c, got = _timeit(columnar_fn)
        assert same(ref, got), f"{label}: columnar output differs"
        speedup = t_s / t_c
        rows.append((label, t_s, t_c, speedup))
        assert speedup >= MIN_SPEEDUP, (
            f"{label}: columnar only {speedup:.1f}x over scalar "
            f"({t_s * 1e3:.1f}ms -> {t_c * 1e3:.1f}ms)")

    lines = [f"columnar tool aggregation over {n} events",
             f"{'path':<24} {'scalar':>10} {'columnar':>10} {'speedup':>8}"]
    for label, t_s, t_c, speedup in rows:
        lines.append(f"{label:<24} {t_s * 1e3:>8.1f}ms {t_c * 1e3:>8.1f}ms "
                     f"{speedup:>7.1f}x")
    write_result("columnar_speedup", "\n".join(lines))

    sym = kernel.symbols()
    benchmark(lambda: pc_profile(columnar, sym.pc_names, columnar=True))


def test_columnar_decode_matches_and_keeps_pace(benchmark, workload):
    """The columnar reader itself must not regress decode: same events
    and anomalies, and no worse than 2x the batched scalar decode."""
    _, scalar, columnar = workload
    assert len(as_batch(columnar)) == len(scalar.all_events())
    kernel, facility, _ = run_contention(
        ncpus=4, workers_per_cpu=2, iterations=60, pc_sample_period=1_000)
    records = facility.snapshot()
    reg = default_registry()
    t_scalar, ref = _timeit(
        lambda: TraceReader(registry=reg).decode_records(records))
    t_col, got = _timeit(
        lambda: ColumnarTraceReader(registry=reg).decode_records(records))
    assert [(e.cpu, e.seq, e.offset, tuple(e.data), e.time)
            for e in ref.all_events()] == \
        [(e.cpu, e.seq, e.offset, tuple(e.data), e.time)
         for e in got.all_events()]
    assert got.anomalies == ref.anomalies
    assert t_col <= 2.0 * t_scalar, (
        f"columnar decode {t_col * 1e3:.1f}ms vs scalar "
        f"{t_scalar * 1e3:.1f}ms")
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
    kernel, _, columnar = _harness_workload(b.quick)
    sym = kernel.symbols()
    hist = b(lambda: pc_profile(columnar, sym.pc_names, columnar=True))
    assert hist
    b.note("samples", sum(c for c, _ in hist))


@perf_bench("columnar.lockstats", quick=True, tolerance=0.4)
def hb_lockstats(b):
    """Figure 7 contention table: columnar context + CONTEND-only replay."""
    _, _, columnar = _harness_workload(b.quick)
    stats = b(lambda: lock_statistics(columnar, columnar=True))
    assert stats
    b.note("groups", len(stats))


@perf_bench("columnar.listing", quick=True, tolerance=0.4)
def hb_listing(b):
    """Figure 5 selection as boolean masks over the merged batch."""
    _, _, columnar = _harness_workload(b.quick)
    events = b(lambda: event_listing(
        columnar, names=["TRC_LOCK_CONTEND_START", "TRC_PROC_CTX_SWITCH"],
        columnar=True))
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
