"""Parallel store pack, one-process queries and the shared shard cache.

The pooled pack buys speed, never different bytes: it is byte-identical
to the sequential one, and its store answers every random predicate
exactly like the ``workers=1`` store, read cold from disk and warm from
the shard cache.  Random-sweep seeds come from ``STORE_SWEEP_SEEDS``
(comma-separated, default ``0,1,2``) and each assertion message echoes
the seed.
"""

import os

import numpy as np
import pytest

from repro.core import pool
from repro.store import (
    Predicate,
    ShardCache,
    TraceStore,
    pack_records,
    shard_cache,
)
from repro.workloads import run_contention
from tests.core.test_parallel import as_comparable

SEEDS = [int(s) for s in
         os.environ.get("STORE_SWEEP_SEEDS", "0,1,2").split(",")]


@pytest.fixture(scope="module")
def contention_records():
    _kernel, facility, _ = run_contention(
        ncpus=4, workers_per_cpu=2, iterations=40, buffer_words=1024)
    return facility.snapshot()


@pytest.fixture(scope="module")
def packed(contention_records, tmp_path_factory):
    out = str(tmp_path_factory.mktemp("parstore") / "s")
    pack_records(contention_records, out, shard_events=512)
    return out


@pytest.fixture(scope="module")
def pool_packed(contention_records, tmp_path_factory):
    out = str(tmp_path_factory.mktemp("poolstore") / "s")
    pack_records(contention_records, out, shard_events=512, workers=2)
    return out


@pytest.fixture(autouse=True)
def _fresh_caches():
    shard_cache().clear()
    yield
    shard_cache().clear()
    pool.shutdown()


def _store_bytes(path):
    return {name: open(os.path.join(path, name), "rb").read()
            for name in sorted(os.listdir(path))}


def _result_key(qr):
    order = qr.batch.order_by_time()
    return (list(zip(qr.batch.cpu[order].tolist(),
                     qr.batch.seq[order].tolist(),
                     qr.batch.offset[order].tolist())),
            qr.pid[order].tolist(),
            qr.pid_known[order].tolist())


class TestParallelPack:
    @pytest.mark.parametrize("workers", [0, 2, 3])
    def test_byte_identical_to_sequential(self, contention_records,
                                          tmp_path, workers):
        seq = str(tmp_path / "seq")
        par = str(tmp_path / f"par{workers}")
        r1 = pack_records(contention_records, seq, shard_events=512,
                          workers=1)
        r2 = pack_records(contention_records, par, shard_events=512,
                          workers=workers)
        assert r1.shards == r2.shards and r1.events == r2.events
        assert r1.bytes_written == r2.bytes_written
        assert _store_bytes(seq) == _store_bytes(par)

    def test_parallel_pack_roundtrips(self, contention_records, tmp_path):
        out = str(tmp_path / "s")
        pack_records(contention_records, out, shard_events=512, workers=2)
        seq = str(tmp_path / "ref")
        pack_records(contention_records, seq, shard_events=512, workers=1)
        assert (as_comparable(TraceStore(out).trace())
                == as_comparable(TraceStore(seq).trace()))


def _random_predicate(rng, store):
    time_max = max((i.stats.time_max for i in store.shards), default=0)
    span = time_max / 1e9 or 1.0
    kw = {}
    if rng.random() < 0.5:
        kw["cpus"] = tuple(rng.choice(store.cpus,
                                      size=rng.integers(1, 3),
                                      replace=False).tolist())
    if rng.random() < 0.5:
        lo, hi = sorted(rng.uniform(0, span, size=2).tolist())
        kw["start_s"], kw["end_s"] = lo, hi
    if rng.random() < 0.3:
        kw["timed_only"] = True
    if rng.random() < 0.3:
        kw["include_control"] = False
    if rng.random() < 0.2:
        kw["min_data"] = int(rng.integers(0, 3))
    return Predicate(**kw)


class TestParallelQuery:
    """Queries of the store the worker pool packed."""

    @pytest.mark.parametrize("seed", SEEDS)
    def test_random_predicate_sweep(self, packed, pool_packed, seed):
        """Pooled-pack answers == workers=1 answers, predicate by
        predicate, with every shard read cold and then served warm."""
        rng = np.random.default_rng(seed)
        ref_store = TraceStore(packed)
        par_store = TraceStore(pool_packed)
        for i in range(8):
            pred = _random_predicate(rng, ref_store)
            shard_cache().clear()
            ref = ref_store.query(pred)
            shard_cache().clear()
            cold = par_store.query(pred)
            warm = par_store.query(pred)
            why = (f"seed={seed} predicate #{i}: {pred}; re-run: "
                   f"STORE_SWEEP_SEEDS={seed} PYTHONPATH=src python -m "
                   f"pytest tests/store/test_parallel_store.py -k sweep")
            for got in (cold, warm):
                assert got.shards_read == ref.shards_read, why
                assert got.rows_scanned == ref.rows_scanned, why
                assert _result_key(got) == _result_key(ref), why

    def test_parallel_trace_identical(self, packed, pool_packed):
        assert (as_comparable(TraceStore(pool_packed).trace())
                == as_comparable(TraceStore(packed).trace()))


class TestShardCache:
    def test_repeat_query_hits_cache(self, packed):
        store = TraceStore(packed)
        pred = Predicate()
        store.query(pred)
        misses = shard_cache().misses
        assert misses > 0 and shard_cache().hits == 0
        again = TraceStore(packed)  # separate instance, same cache
        again.query(pred)
        assert shard_cache().misses == misses, "second query re-read shards"
        assert shard_cache().hits > 0

    def test_disabled_by_env(self, packed, monkeypatch):
        monkeypatch.setenv("REPRO_SHARD_CACHE_MB", "0")
        store = TraceStore(packed)
        store.query(Predicate())
        assert len(shard_cache()) == 0

    def test_stale_key_after_repack(self, packed, contention_records,
                                    tmp_path):
        out = str(tmp_path / "s")
        pack_records(contention_records, out, shard_events=512)
        ref = _result_key(TraceStore(out).query(Predicate()))
        assert shard_cache().hits == 0
        # Repack in place: every shard file is rewritten, so the cache
        # keys (size, mtime_ns) no longer match and nothing stale serves.
        pack_records(contention_records, out, shard_events=256, force=True)
        got = _result_key(TraceStore(out).query(Predicate()))
        assert got == ref
        assert shard_cache().hits == 0, "served a stale cached shard"

    def test_lru_eviction_by_budget(self):
        c = ShardCache(max_bytes=100)
        c.put("a", "A", 40)
        c.put("b", "B", 40)
        assert c.get("a") == "A"  # touch a: b becomes LRU
        c.put("c", "C", 40)
        assert c.get("b") is None, "LRU entry should have been evicted"
        assert c.get("a") == "A" and c.get("c") == "C"
        assert c.bytes <= 100

    def test_oversized_entry_not_admitted(self):
        c = ShardCache(max_bytes=10)
        c.put("big", "X", 11)
        assert len(c) == 0 and c.get("big") is None

    def test_budget_env_change_rebuilds(self, monkeypatch):
        monkeypatch.setenv("REPRO_SHARD_CACHE_MB", "1")
        c1 = shard_cache()
        assert c1.max_bytes == 1 << 20
        monkeypatch.setenv("REPRO_SHARD_CACHE_MB", "2")
        c2 = shard_cache()
        assert c2.max_bytes == 2 << 20 and c2 is not c1
