"""Parallel boundary-sharded trace decoding.

The paper forbids events from crossing buffer (alignment) boundaries
precisely so that a reader can seek to *any* boundary and start parsing
(§3.2).  That guarantee makes decoding embarrassingly parallel: every
buffer is independently scannable, so a trace can be cut at boundaries
into shards and fanned out over a pool of worker processes.

Pipeline
--------

1. **Shard** (:func:`shard_records`): records are grouped per CPU,
   ordered by sequence number, and split into contiguous runs.  Cuts
   land only on buffer boundaries — the only places the format promises
   a parseable state.
2. **Scan** (worker processes): each worker receives raw word arrays
   (``bytes`` of the little-endian words — never pickled event
   objects) and runs the :func:`~repro.core.stream.scan_buffers` walk
   over its shard.  The result shipped back per buffer is tiny: the
   accepted event offsets and the garble verdicts — every other event
   attribute is a pure function of the words, which the parent already
   holds.
3. **Stitch** (parent): per-CPU shard results are folded, in sequence
   order, into the same
   :class:`~repro.core.columnar.ColumnarAssembler` the sequential
   decoder uses.  Timestamps are reconstructed there, per CPU, because
   a buffer without an anchor chains on from the one before it and that
   one may sit in another shard; the output — columns, times,
   anomalies, ordering — is bit-identical to sequential decode.  Garble
   detection and committed-count checks behave identically per shard
   because they are per-buffer properties.

Worker processes are a real cost on small traces; ``workers<=1`` (or a
trace with fewer buffers than workers) falls back to the in-process
sequential decoder.  Shard scans run on the shared persistent pool
(:mod:`repro.core.pool` — fork-preferred, spawn where fork is
unavailable), so repeated decodes pay pool startup once.  Payloads of
records loaded from an mmap'd trace file never cross the pipe at all:
the worker receives a ``(path, byte_offset, nwords)`` descriptor and
maps the same file itself — both sides then share the page cache.
In-memory records ship as raw little-endian bytes.  If a process pool
cannot be created at all (restricted environments), decoding degrades
gracefully to in-process shard scans.
"""

from __future__ import annotations

import mmap
import os
from typing import Dict, Iterable, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.core import pool
from repro.core.buffers import BufferRecord
from repro.core.registry import EventRegistry
from repro.core.stream import BufferColumns, BufferScan, scan_buffers

#: A worker-side pointer into an mmap-able trace file:
#: (path, payload_byte_offset, nwords).
_FileRef = Tuple[str, int, int]
#: One buffer handed to a worker: (seq, payload, fill_words).  The
#: payload is either the raw little-endian words as ``bytes`` or a
#: :data:`_FileRef` descriptor the worker resolves against its own
#: read-only mapping of the same trace file (zero bytes over the pipe).
_ShardEntry = Tuple[int, Union[bytes, _FileRef], int]
#: One worker task: (cpu, entries, recover-after-garble flag).
_ShardTask = Tuple[int, List[_ShardEntry], bool]
#: One scanned buffer coming back: (seq, offsets, garbles, resumes).
_ScanResult = Tuple[
    int, Union[List[int], np.ndarray],
    List[Tuple[int, str]], List[Optional[int]],
]

#: Per-worker cache of mapped trace files (path -> mmap).  Bounded;
#: evicted entries are dropped without ``close()`` so any outstanding
#: views stay valid — the mapping dies with its last reference.
_WORKER_MAPS: Dict[str, mmap.mmap] = {}
_WORKER_MAPS_MAX = 8


def _mapped_words(path: str, offset: int, nwords: int) -> np.ndarray:
    """Resolve a :data:`_FileRef` against this worker's own mapping."""
    mm = _WORKER_MAPS.get(path)
    if mm is None:
        while len(_WORKER_MAPS) >= _WORKER_MAPS_MAX:
            _WORKER_MAPS.pop(next(iter(_WORKER_MAPS)))
        with open(path, "rb") as fh:
            mm = mmap.mmap(fh.fileno(), 0, access=mmap.ACCESS_READ)
        _WORKER_MAPS[path] = mm
    return np.frombuffer(mm, dtype="<u8", count=nwords, offset=offset)


def shard_records(
    records: Sequence[BufferRecord], nshards: int
) -> List[Tuple[int, List[BufferRecord]]]:
    """Cut records into at most ``nshards`` contiguous per-CPU runs.

    Buffers are fixed-size, so splitting by buffer count splits by words;
    each CPU gets a share of the shard budget proportional to its record
    count (at least one).  Shards are returned in (cpu, sequence) order,
    which is the order the sequential reader visits buffers — the parent
    stitches shard results back together in this same order.
    """
    by_cpu: Dict[int, List[BufferRecord]] = {}
    for rec in records:
        by_cpu.setdefault(rec.cpu, []).append(rec)
    for recs in by_cpu.values():
        recs.sort(key=lambda r: r.seq)
    total = sum(len(v) for v in by_cpu.values())
    shards: List[Tuple[int, List[BufferRecord]]] = []
    for cpu in sorted(by_cpu):
        recs = by_cpu[cpu]
        k = max(1, round(nshards * len(recs) / total)) if total else 1
        k = min(k, len(recs))
        base, extra = divmod(len(recs), k)
        i = 0
        for j in range(k):
            n = base + (1 if j < extra else 0)
            shards.append((cpu, recs[i : i + n]))
            i += n
    return shards


def _scan_shard(task: _ShardTask) -> Tuple[int, List[_ScanResult]]:
    """Worker: walk one shard of raw buffers into offsets + verdicts."""
    cpu, entries, recover = task
    scans = scan_buffers(
        [(np.frombuffer(raw, dtype="<u8") if isinstance(raw, bytes)
          else _mapped_words(*raw), fill_words)
         for _seq, raw, fill_words in entries],
        recover=recover)
    return cpu, [(seq, scan.offsets, scan.garbles, scan.resumes)
                 for (seq, _raw, _fill), scan in zip(entries, scans)]


def _run_tasks(
    tasks: List[_ShardTask], workers: int
) -> List[Tuple[int, List[_ScanResult]]]:
    """Scan shards on the shared pool, in-process if no pool is possible."""
    if not tasks:
        return []
    return pool.run_tasks(_scan_shard, tasks, workers)


def _sharded_scan(
    records: List[BufferRecord],
    workers: int,
    strict: bool,
    shards_per_worker: int,
) -> Tuple[
    List[Tuple[int, List[BufferRecord]]],
    List[Tuple[int, List[_ScanResult]]],
]:
    """Shard ``records`` and scan the shards on the worker pool.

    Shards are built in (cpu, seq) order and the per-buffer scan
    results come back aligned with the shard list for stitching.
    Records loaded from an mmap'd trace file travel as ``(path, offset,
    nwords)`` descriptors — validated against the file's current
    size/mtime so a rewritten file degrades to byte shipping instead of
    silently decoding different data.
    """
    shards = shard_records(records, workers * shards_per_worker)

    ref_ok: Dict[str, bool] = {}

    def _entry(rec: BufferRecord) -> _ShardEntry:
        ref = rec._file_ref
        if ref is not None:
            path, off, size, mtime_ns = ref
            ok = ref_ok.get(path)
            if ok is None:
                try:
                    st = os.stat(path)
                    ok = (st.st_size == size
                          and st.st_mtime_ns == mtime_ns)
                except OSError:
                    ok = False
                ref_ok[path] = ok
            if ok:
                return (rec.seq, (path, off, len(rec.words)),
                        rec.fill_words)
        return (rec.seq, np.asarray(rec.words, dtype="<u8").tobytes(),
                rec.fill_words)

    tasks: List[_ShardTask] = [
        (cpu, [_entry(rec) for rec in recs], not strict)
        for cpu, recs in shards
    ]
    return shards, _run_tasks(tasks, workers)


def decode_records_columnar_parallel(
    records: Iterable[BufferRecord],
    registry: Optional[EventRegistry] = None,
    include_fillers: bool = False,
    check_committed: bool = True,
    workers: Optional[int] = None,
    shards_per_worker: int = 2,
    strict: bool = False,
):
    """Decode buffer records on ``workers`` processes, straight into
    columns: the parent folds the offsets the shard scans return
    into a :class:`~repro.core.columnar.ColumnarTrace` — per-CPU shard
    columns concatenate without ever materializing ``TraceEvent``
    objects (call ``.to_trace()`` on the result for those).

    Output is column-for-column identical to
    ``ColumnarTraceReader(...).decode_records(records)``.

    ``workers=None`` uses ``os.cpu_count()``; ``workers<=1`` (or a trace
    too small to be worth sharding) decodes in-process.
    ``shards_per_worker`` oversubscribes the pool slightly so an unlucky
    shard full of dense buffers cannot straggle the run.  ``strict``
    selects stop-at-first-garble decoding exactly as on
    :class:`~repro.core.columnar.ColumnarTraceReader`.
    """
    from repro.core.columnar import ColumnarAssembler, ColumnarTraceReader

    records = list(records)
    if workers is None:
        workers = pool.pool_workers()
    sequential = ColumnarTraceReader(
        registry=registry,
        include_fillers=include_fillers,
        check_committed=check_committed,
        strict=strict,
    )
    if workers <= 1 or len(records) <= workers:
        return sequential.decode_records(records)

    shards, results = _sharded_scan(records, workers, strict,
                                    shards_per_worker)

    asm = ColumnarAssembler(
        registry=registry,
        include_fillers=include_fillers,
        check_committed=check_committed,
    )
    # shard_records yields shards in (cpu, seq) order — the order the
    # sequential decoder visits buffers — so folding them in turn
    # reproduces its timestamp state and anomaly order exactly.
    for (cpu, recs), (res_cpu, scans) in zip(shards, results):
        assert cpu == res_cpu
        for rec, (seq, offsets, garbles, resumes) in zip(recs, scans):
            assert rec.seq == seq
            asm.add_buffer(rec, BufferScan(
                BufferColumns(rec.words, rec.fill_words), offsets,
                garbles, resumes))
    return asm.finish()
