"""Zero-copy ingest fast path: mmap decode, parallel pack, warm pool.

* loading a >= 100k-event trace hands out mmap page-cache views
  (zero payload copies, file provenance stamped for the pool) that
  decode bit-identically to the in-memory records they were saved from
  — reported as load time and MB/s;
* packing a store with 4 workers is >= 2x faster than the sequential
  pack (skipped below 4 cores; byte-identity of the parallel output is
  asserted unconditionally);
* a warm persistent pool (``repro.core.pool``) answers a roundtrip
  >= 5x faster than paying cold worker startup, which is the whole
  point of keeping it alive between ``--workers`` runs.
"""

import gc
import os
import sys
import time

import numpy as np
import pytest

from repro.core import pool
from repro.core.columnar import ColumnarTraceReader, as_batch
from repro.core.registry import default_registry
from repro.core.writer import load_records, save_records
from result_tables import write_result
from repro.store import pack_records
from repro.workloads import run_contention

MIN_EVENTS = 100_000
MIN_PACK_SPEEDUP = 2.0
MIN_POOL_WARMUP = 5.0


def _timeit(fn, repeats=5):
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


def _build(out_dir, ncpus=8, iterations=120, pc_sample_period=500,
           buffer_words=1024, num_buffers=128):
    """A >= 100k-event, many-frame contention trace, saved raw.

    Small buffers force many frames — the frame payload is the unit
    a copying reader pays for and the mmap walk only views, so frame
    count is what the zero-copy claim is actually about.
    """
    _kernel, facility, _ = run_contention(
        ncpus=ncpus, workers_per_cpu=2, iterations=iterations,
        pc_sample_period=pc_sample_period, buffer_words=buffer_words,
        num_buffers=num_buffers)
    records = facility.snapshot()
    trace_path = os.path.join(out_dir, "trace.k42")
    save_records(trace_path, records)
    return trace_path, records


@pytest.fixture(scope="module")
def workload(tmp_path_factory):
    return _build(str(tmp_path_factory.mktemp("ingest_bench")))


def _decode_arrays(records):
    trace = ColumnarTraceReader(
        registry=default_registry()).decode_records(records)
    return as_batch(trace).to_arrays()


def test_mmap_load(benchmark, workload):
    """Loading a 100k-event trace is zero-copy and decodes
    bit-identically to the records it was saved from."""
    trace_path, base_records = workload
    ref = _decode_arrays(base_records)
    events = len(ref["time"])
    assert events >= MIN_EVENTS, \
        f"workload too small for the claim: {events} events"

    loaded = load_records(trace_path)
    assert len(loaded) == len(base_records)
    for a, b in zip(loaded, base_records):
        assert a.seq == b.seq and a.fill_words == b.fill_words
        assert np.array_equal(a.words, b.words)
    if sys.byteorder == "little":
        assert all(r._file_ref is not None for r in loaded), \
            "mmap loads should stamp file provenance on little-endian"
        assert not any(r.words.flags.owndata for r in loaded), \
            "record words should be views of the mapping, not copies"
    got = _decode_arrays(loaded)
    assert set(got) == set(ref)
    for k in ref:
        assert np.array_equal(got[k], ref[k]), f"column {k} differs"

    load_records(trace_path)  # warm the page cache out of the timing
    t_load, _ = _timeit(lambda: load_records(trace_path))
    size = os.path.getsize(trace_path)
    write_result("ingest_mmap", "\n".join([
        f"zero-copy trace load over {events} events, "
        f"{len(base_records)} frames, {size / 1e6:.1f} MB",
        f"mmap load: {t_load * 1e3:.2f}ms "
        f"({size / 1e6 / t_load:.0f} MB/s)",
    ]))
    benchmark(lambda: load_records(trace_path))


def test_parallel_pack_byte_identical(workload, tmp_path):
    """A 2-worker pack writes byte-for-byte the sequential store."""
    _, records = workload
    seq_dir = str(tmp_path / "seq.store")
    par_dir = str(tmp_path / "par.store")
    pack_records(records, seq_dir, shard_events=2048, workers=1)
    pack_records(records, par_dir, shard_events=2048, workers=2)
    seq_files = sorted(os.listdir(seq_dir))
    assert seq_files == sorted(os.listdir(par_dir))
    for name in seq_files:
        with open(os.path.join(seq_dir, name), "rb") as fh:
            want = fh.read()
        with open(os.path.join(par_dir, name), "rb") as fh:
            have = fh.read()
        assert want == have, f"{name} differs between packs"


@pytest.mark.skipif((os.cpu_count() or 1) < 4,
                    reason="pack speedup floor needs >= 4 cores")
def test_parallel_pack_speedup(workload, tmp_path):
    """Packing on 4 workers >= 2x the sequential pack."""
    _, records = workload
    out = str(tmp_path / "speed.store")
    # Warm the pool so worker startup isn't billed to the parallel pack.
    pool.run_tasks(pool._ping, list(range(8)), 4)
    t_seq, _ = _timeit(lambda: pack_records(
        records, out, shard_events=2048, workers=1, force=True), repeats=3)
    t_par, _ = _timeit(lambda: pack_records(
        records, out, shard_events=2048, workers=4, force=True), repeats=3)
    speedup = t_seq / t_par
    assert speedup >= MIN_PACK_SPEEDUP, (
        f"parallel pack only {speedup:.2f}x over sequential "
        f"({t_seq * 1e3:.1f}ms -> {t_par * 1e3:.1f}ms)")
    write_result("ingest_pack_parallel", "\n".join([
        f"store pack, {len(records)} frames",
        f"sequential: {t_seq * 1e3:.1f}ms  4 workers: {t_par * 1e3:.1f}ms  "
        f"speedup: {speedup:.2f}x",
    ]))


def test_warm_pool_startup(workload):
    """A warm pool roundtrip >= 5x faster than cold worker startup."""
    if pool._start_method() is None:
        pytest.skip("process pool disabled (REPRO_POOL_START_METHOD)")

    def roundtrip():
        p = pool.get_pool(2)
        if p is None:
            pytest.skip("no process pool available on this platform")
        return p.submit(pool._ping, 42).result()

    try:
        pool.shutdown()
        t0 = time.perf_counter()
        assert roundtrip() == 42
        t_cold = time.perf_counter() - t0
        t_warm = float("inf")
        for _ in range(5):
            t0 = time.perf_counter()
            assert roundtrip() == 42
            t_warm = min(t_warm, time.perf_counter() - t0)
        ratio = t_cold / t_warm
        assert ratio >= MIN_POOL_WARMUP, (
            f"warm pool only {ratio:.1f}x over cold startup "
            f"({t_cold * 1e3:.1f}ms -> {t_warm * 1e3:.2f}ms)")
        write_result("ingest_pool_warm", "\n".join([
            f"pool startup ({pool.pool_kind()}): cold "
            f"{t_cold * 1e3:.1f}ms, warm roundtrip {t_warm * 1e3:.2f}ms, "
            f"{ratio:.1f}x",
        ]))
    finally:
        pool.shutdown()
