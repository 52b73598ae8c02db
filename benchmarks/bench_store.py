"""Persistent columnar store: pushed-down queries vs raw re-decode.

The tentpole claim under test: answering a selective predicate (one
CPU, narrow time window) against a packed store touches only the
shards whose manifest statistics overlap the predicate, and is >= 10x
faster than re-decoding the raw trace and filtering — on a trace of at
least 100k events.  The timed comparison asserts the two paths return
identical rows, so the speedup is never bought with a wrong answer.
"""

import gc
import os
import time

import numpy as np
import pytest

from repro.core.columnar import ColumnarTraceReader, as_batch
from repro.core.registry import default_registry
from repro.core.writer import load_records, save_records
from result_tables import write_result
from repro.store import Predicate, TraceStore, pack_records, select
from repro.workloads import run_contention

MIN_PUSHDOWN_SPEEDUP = 10.0
MIN_EVENTS = 100_000


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


def _build(out_dir, ncpus=8, iterations=120, pc_sample_period=500,
           buffer_words=1024, num_buffers=128, shard_events=2048):
    """A many-buffer contention trace, saved raw and packed.

    The small ``buffer_words`` forces dozens of buffers per CPU, so the
    store has enough shards for statistics pruning to matter;
    ``num_buffers`` keeps total capacity high enough for >= 100k events.
    """
    _kernel, facility, _ = run_contention(
        ncpus=ncpus, workers_per_cpu=2, iterations=iterations,
        pc_sample_period=pc_sample_period, buffer_words=buffer_words,
        num_buffers=num_buffers)
    records = facility.snapshot()
    trace_path = os.path.join(out_dir, "trace.k42")
    save_records(trace_path, records)
    store_path = os.path.join(out_dir, "trace.store")
    pack_records(records, store_path, shard_events=shard_events)
    return trace_path, store_path


@pytest.fixture(scope="module")
def workload(tmp_path_factory):
    return _build(str(tmp_path_factory.mktemp("store_bench")))


def _span_seconds(store):
    return max(i.stats.time_max for i in store.shards) / 1e9


def _row_key(batch, order):
    return list(zip(batch.cpu[order].tolist(), batch.seq[order].tolist(),
                    batch.offset[order].tolist()))


def test_store_pushdown_speedup(benchmark, workload):
    """cpu + time-window predicate: >= 10x over raw re-decode, identical
    rows, and only the overlapping shards read."""
    trace_path, store_path = workload
    store = TraceStore(store_path)
    assert store.events >= MIN_EVENTS, \
        f"workload too small for the claim: {store.events} events"
    span = _span_seconds(store)
    pred = Predicate(cpus=(3,), start_s=span * 0.45, end_s=span * 0.50)
    reg = default_registry()

    def raw_filter():
        records = load_records(trace_path)
        trace = ColumnarTraceReader(registry=reg).decode_records(records)
        b = as_batch(trace)
        idx = np.flatnonzero(select(b, pred))
        return _row_key(b, idx)

    def pushed():
        st = TraceStore(store_path)  # cold: manifest + shards each time
        qr = st.query(pred)
        return qr, _row_key(qr.batch, qr.batch.order_by_time())

    t_raw, ref = _timeit(raw_filter)
    t_push, (qr, got) = _timeit(pushed)
    assert sorted(got) == sorted(ref), "pushdown returned different rows"
    assert len(got) > 0, "predicate matched nothing; bench is vacuous"
    assert qr.shards_read < qr.shards_total, \
        "statistics pruned nothing; shard cutting is broken"
    speedup = t_raw / t_push
    assert speedup >= MIN_PUSHDOWN_SPEEDUP, (
        f"pushdown only {speedup:.1f}x over raw re-decode "
        f"({t_raw * 1e3:.1f}ms -> {t_push * 1e3:.1f}ms)")

    write_result("store_pushdown", "\n".join([
        f"predicate pushdown over {store.events} events, "
        f"{qr.shards_total} shards",
        f"{'path':<28} {'time':>10} {'shards':>7} {'rows':>8}",
        f"{'raw re-decode + filter':<28} {t_raw * 1e3:>8.1f}ms "
        f"{qr.shards_total:>7} {store.events:>8}",
        f"{'store query (pushdown)':<28} {t_push * 1e3:>8.1f}ms "
        f"{qr.shards_read:>7} {qr.rows_scanned:>8}",
        f"speedup: {speedup:.1f}x  matched rows: {len(got)}",
    ]))
    benchmark(lambda: TraceStore(store_path).query(pred))


def test_store_roundtrip_not_slower_than_decode(workload):
    """Reconstituting the full trace from the store must stay within 2x
    of a raw columnar decode (it skips scanning, but pays npz inflate)."""
    trace_path, store_path = workload
    reg = default_registry()
    records = load_records(trace_path)
    t_decode, fresh = _timeit(
        lambda: ColumnarTraceReader(registry=reg).decode_records(records))
    t_store, again = _timeit(lambda: TraceStore(store_path).trace())
    assert len(as_batch(again)) == len(as_batch(fresh))
    assert t_store <= 2.0 * t_decode, (
        f"store reconstitution {t_store * 1e3:.1f}ms vs decode "
        f"{t_decode * 1e3:.1f}ms")
