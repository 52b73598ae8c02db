"""The store's read work as counts: shard loads per query, pool calls.

A query reads exactly the shards whose statistics survive the
predicate — one :func:`~repro.store.format.load_shard` per shard read,
none for a pruned one — and a repeat of it is served from the shard
cache without touching the disk.  No read runs on the worker pool:
``query`` and ``info``/``locks`` over a ``.k42`` or a store call
:func:`repro.core.pool.run_tasks` zero times.
"""

import pytest

import repro.store.reader as reader
from repro.cli import main
from repro.core import pool
from repro.core.writer import save_records
from repro.store import Predicate, TraceStore, shard_cache, shard_may_match
from repro.workloads import run_contention


@pytest.fixture(scope="module")
def trace_and_store(tmp_path_factory):
    d = tmp_path_factory.mktemp("budget")
    _kernel, facility, _ = run_contention(ncpus=2, workers_per_cpu=2,
                                          iterations=20, buffer_words=256)
    path, store = str(d / "trace.k42"), str(d / "trace.store")
    save_records(path, facility.snapshot())    # 12 frames, 12 shards
    assert main(["pack", path, store, "--shard-events", "64"]) == 0
    return path, store


@pytest.fixture
def loads(monkeypatch):
    """Paths of every shard file read from disk, in order."""
    paths = []
    real = reader.load_shard
    monkeypatch.setattr(reader, "load_shard",
                        lambda path: paths.append(path) or real(path))
    shard_cache().clear()
    yield paths
    shard_cache().clear()


@pytest.fixture
def pool_calls(monkeypatch):
    """Every :func:`pool.run_tasks` call, with the shards cold."""
    calls = []
    real = pool.run_tasks
    monkeypatch.setattr(pool, "run_tasks",
                        lambda *a, **kw: calls.append(a) or real(*a, **kw))
    shard_cache().clear()
    return calls


PREDICATES = [
    Predicate(),
    Predicate(cpus=(1,)),
    Predicate(start_s=0.0, end_s=1e-4, include_control=False),
    Predicate(cpus=(0,), timed_only=True),
]


@pytest.mark.parametrize("pred", PREDICATES, ids=repr)
def test_query_loads_exactly_the_shards_it_reads(trace_and_store, loads,
                                                 monkeypatch, pred):
    monkeypatch.setenv("REPRO_SHARD_CACHE_MB", "0")
    store = TraceStore(trace_and_store[1])
    survivors = [info.file for info in store.shards
                 if shard_may_match(info.stats, pred, store.registry)]
    qr = store.query(pred)
    assert len(loads) == qr.shards_read == len(survivors)
    assert [p.rsplit("/", 1)[1] for p in loads] == survivors
    if pred.cpus:
        assert qr.shards_pruned > 0, "a one-CPU query pruned nothing"


def test_repeated_query_loads_nothing(trace_and_store, loads):
    TraceStore(trace_and_store[1]).query(Predicate())
    assert len(loads) > 1
    del loads[:]
    qr = TraceStore(trace_and_store[1]).query(Predicate())
    assert loads == [] and qr.shards_read > 1


def test_repeated_scan_hits_a_cache_it_overflows(trace_and_store, loads,
                                                 monkeypatch):
    """Under a cache that holds about half the store, a repeated full
    scan still reads only the shards the cache did not keep."""
    TraceStore(trace_and_store[1]).query(Predicate())
    half_mb = shard_cache().bytes / 2 / (1 << 20)
    monkeypatch.setenv("REPRO_SHARD_CACHE_MB", repr(half_mb))
    TraceStore(trace_and_store[1]).query(Predicate())
    del loads[:]
    qr = TraceStore(trace_and_store[1]).query(Predicate())
    assert 0 < len(loads) < qr.shards_read


@pytest.mark.parametrize("argv", [
    ["query", "STORE", "--cpu", "1"],
    ["info", "TRACE"], ["locks", "TRACE"],
    ["info", "STORE"], ["locks", "STORE"],
], ids=lambda argv: "-".join(argv).lower())
def test_reads_never_touch_the_worker_pool(trace_and_store, pool_calls,
                                           capsys, argv):
    path, store = trace_and_store
    names = {"TRACE": path, "STORE": store}
    assert main([names.get(a, a) for a in argv]) == 0
    assert capsys.readouterr().out
    assert pool_calls == []
