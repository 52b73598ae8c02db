"""Pack → store → trace() reconstitution is bit-identical to decode."""

import json
import os

import numpy as np
import pytest

from repro.core.columnar import ColumnarTrace, ColumnarTraceReader, EventBatch
from repro.core.registry import default_registry
from repro.store import (
    StoreFormatError,
    TraceStore,
    is_store,
    pack_records,
    pack_trace,
    shard_cache,
)
from repro.store.format import MANIFEST_NAME, read_manifest, write_manifest
from repro.workloads import run_contention
from tests.core.test_columnar import _corrupt, _event_tuple
from tests.core.test_parallel import as_comparable, build_records


def _decode(records, strict=False):
    return ColumnarTraceReader(registry=default_registry(),
                               strict=strict).decode_records(records)


@pytest.fixture(scope="module")
def contention_records():
    _kernel, facility, _ = run_contention(
        ncpus=4, workers_per_cpu=2, iterations=40, buffer_words=1024)
    return facility.snapshot()


class TestRoundTrip:
    def test_trace_is_bit_identical_to_fresh_decode(
            self, contention_records, tmp_path):
        fresh = _decode(contention_records)
        res = pack_records(contention_records, str(tmp_path / "s"),
                           shard_events=512)
        store = TraceStore(str(tmp_path / "s"))
        again = store.trace()
        assert as_comparable(again) == as_comparable(fresh)
        assert res.events == sum(len(b) for b in fresh.batches_by_cpu.values())
        assert res.shards > len(fresh.cpus)  # multi-shard per CPU
        assert store.cpus == fresh.cpus

    def test_corrupt_trace_roundtrips_with_anomalies(self, tmp_path):
        records = _corrupt(build_records(n_events=900, ncpus=3))
        fresh = _decode(records)
        pack_records(records, str(tmp_path / "s"), shard_events=128)
        again = TraceStore(str(tmp_path / "s")).trace()
        assert as_comparable(again) == as_comparable(fresh)
        assert len(again.anomaly_columns) == len(fresh.anomaly_columns) > 0

    def test_eventless_cpu_survives(self, tmp_path):
        # A CPU in the trace universe with zero events gets no shard,
        # but trace() must still reconstitute it (as an empty batch).
        records = build_records(n_events=120, ncpus=2)
        fresh = _decode(records)
        batches = dict(fresh.batches_by_cpu)
        batches[7] = EventBatch.empty(default_registry())
        padded = ColumnarTrace(batches, fresh.anomaly_columns,
                               default_registry())
        pack_trace(padded, str(tmp_path / "s"))
        store = TraceStore(str(tmp_path / "s"))
        assert store.cpus == [0, 1, 7]
        assert all(info.stats.cpu != 7 for info in store.shards)
        again = store.trace()
        assert again.cpus == [0, 1, 7]
        assert len(again.batches_by_cpu[7]) == 0
        assert as_comparable(again) == as_comparable(padded)

    def test_uncompressed_store_identical(self, contention_records, tmp_path):
        fresh = _decode(contention_records)
        trace = _decode(contention_records)
        pack_trace(trace, str(tmp_path / "s"), shard_events=512,
                   compress=False)
        store = TraceStore(str(tmp_path / "s"))
        assert store.compression == "none"
        assert as_comparable(store.trace()) == as_comparable(fresh)


class TestShardLayout:
    def test_shards_cut_only_at_buffer_boundaries(
            self, contention_records, tmp_path):
        pack_records(contention_records, str(tmp_path / "s"),
                     shard_events=256)
        store = TraceStore(str(tmp_path / "s"))
        seen = {}  # (cpu, seq) -> shard index; a buffer never splits
        for info in store.shards:
            batch, _, _ = store.load_shard(info)
            assert (batch.cpu == info.stats.cpu).all()
            for seq in np.unique(batch.seq).tolist():
                key = (info.stats.cpu, seq)
                assert key not in seen, \
                    f"buffer {key} split across shards {seen[key]}, " \
                    f"{info.index}"
                seen[key] = info.index

    def test_manifest_stats_bound_their_shard(
            self, contention_records, tmp_path):
        pack_records(contention_records, str(tmp_path / "s"),
                     shard_events=256)
        store = TraceStore(str(tmp_path / "s"))
        for info in store.shards:
            batch, pid, known = store.load_shard(info)
            st = info.stats
            assert st.events == len(batch)
            assert st.seq_min == int(batch.seq.min())
            assert st.seq_max == int(batch.seq.max())
            majors = np.unique(batch.major).tolist()
            assert all(st.major_mask >> m & 1 for m in majors)
            assert st.dlen_max == int(batch.dlen.max())
            if known.any():
                kp = pid[known]
                assert st.pid_min == int(kp.min())
                assert st.pid_max == int(kp.max())


class TestStoreDirectory:
    def test_is_store_detection(self, contention_records, tmp_path):
        target = str(tmp_path / "s")
        assert not is_store(target)
        pack_records(contention_records, target)
        assert is_store(target)
        assert not is_store(str(tmp_path))

    def test_refuses_overwrite_without_force(
            self, contention_records, tmp_path):
        target = str(tmp_path / "s")
        pack_records(contention_records, target)
        with pytest.raises(FileExistsError):
            pack_records(contention_records, target)
        res = pack_records(contention_records, target, shard_events=512,
                           force=True)
        # Force replaced, not appended: manifest matches what's on disk.
        files = [f for f in os.listdir(target) if f.endswith(".npz")]
        assert len(files) == res.shards

    def test_rejects_foreign_manifest(self, tmp_path):
        target = tmp_path / "s"
        target.mkdir()
        (target / MANIFEST_NAME).write_text(
            json.dumps({"format": "not-a-store", "version": 1}))
        with pytest.raises(StoreFormatError):
            TraceStore(str(target))

    def test_rejects_future_version(self, contention_records, tmp_path):
        target = str(tmp_path / "s")
        pack_records(contention_records, target)
        manifest = read_manifest(target)
        manifest["version"] = 999
        with open(os.path.join(target, MANIFEST_NAME), "w") as fh:
            json.dump(manifest, fh)
        with pytest.raises(StoreFormatError):
            TraceStore(target)

    def test_killed_manifest_write_leaves_old_manifest(
            self, contention_records, tmp_path, monkeypatch):
        # A pack/merge killed mid-write must not tear manifest.json.
        target = str(tmp_path / "s")
        pack_records(contention_records, target)
        before = read_manifest(target)
        files = sorted(os.listdir(target))

        def torn_dump(doc, fh, **kw):
            fh.write(json.dumps(doc, **kw)[:40])
            raise RuntimeError("killed mid-write")

        monkeypatch.setattr(json, "dump", torn_dump)
        with pytest.raises(RuntimeError, match="killed"):
            write_manifest(target, dict(before, shards=[]))
        monkeypatch.undo()
        assert read_manifest(target) == before
        assert sorted(os.listdir(target)) == files  # no temp file left

    def test_cache_shards_returns_same_objects(
            self, contention_records, tmp_path):
        """The process-wide shard cache serves one decoded shard to
        every reader of the store, not just to the one that read it."""
        pack_records(contention_records, str(tmp_path / "s"))
        shard_cache().clear()
        store = TraceStore(str(tmp_path / "s"))
        info = store.shards[0]
        b1, _, _ = store.load_shard(info)
        b2, _, _ = TraceStore(str(tmp_path / "s")).load_shard(info)
        assert b1 is b2


class TestObjectTimeShards:
    def test_big_time_roundtrip_through_store(self, tmp_path):
        # Corrupt-anchor times beyond int64 ride the string-typed
        # time_big arrays; the manifest flags the shard.
        records = build_records(n_events=60, ncpus=1, buffer_words=64)
        trace = _decode(records)
        b = trace.batches_by_cpu[0]
        t = b.time.astype(object)
        t[5] = 2 ** 70 + 99
        b.time = t
        pack_trace(trace, str(tmp_path / "s"))
        store = TraceStore(str(tmp_path / "s"))
        assert any(d.get("time_big")
                   for d in read_manifest(str(tmp_path / "s"))["shards"])
        again = store.trace().batches_by_cpu[0]
        assert again.time.dtype == object
        assert again.time.tolist() == b.time.tolist()
        assert list(map(_event_tuple, again.events())) == \
            list(map(_event_tuple, b.events()))
