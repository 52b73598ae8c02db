"""Packing a decoded trace into a persistent store directory.

The writer walks each CPU's decoded stream in buffer order and cuts
shards only at buffer (sequence-number) boundaries — a buffer is the
unit the lockless protocol commits, so it is also the unit random
access must survive.  Buffers accumulate into a shard until it reaches
``shard_events`` rows; an oversized buffer gets a shard of its own
rather than being split.

The executing-context columns (``pid``/``pid_known``) are a whole-trace
fixpoint — a ``THREAD_CREATE`` late in the trace names threads that ran
earlier — so they are computed once here over the full decode and
stored materialized per shard; queries then filter by pid without any
replay, and agree exactly with what a tool computes over the full
trace.  Anomaly verdicts (the damage ledger) are small and global, so
they live whole in the manifest rather than in any shard.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core import pool
from repro.core.buffers import BufferRecord
from repro.core.columnar import (
    ColumnarTrace,
    ColumnarTraceReader,
    EventBatch,
)
from repro.core.registry import EventRegistry, default_registry
from repro.store.format import (
    STORE_FORMAT,
    STORE_VERSION,
    MANIFEST_NAME,
    save_shard,
    shard_filename,
    write_manifest,
)
from repro.store.stats import ShardStats
from repro.tools.context import ColumnarContext

#: Default shard granularity: big enough that zlib has something to
#: chew on, small enough that a narrow time-window query skips most of
#: a large trace.
DEFAULT_SHARD_EVENTS = 16384


@dataclass
class PackResult:
    """What ``pack`` produced (and prints)."""

    path: str
    shards: int
    events: int
    cpus: List[int]
    bytes_written: int
    anomalies: int


def _shard_cuts(seq: np.ndarray, shard_events: int) -> List[int]:
    """Row indices cutting one CPU's decode-order rows into shards.

    Returns boundaries ``[0, c1, ..., n]``; every cut coincides with a
    buffer (sequence-number) change.
    """
    n = len(seq)
    bounds = np.flatnonzero(
        np.concatenate(([True], seq[1:] != seq[:-1]))).tolist() + [n]
    cuts = [0]
    for end in bounds[1:]:
        # Close the open shard after the buffer that fills it.
        if end - cuts[-1] >= shard_events:
            cuts.append(end)
    if cuts[-1] != n:
        cuts.append(n)
    return cuts


def _write_shard_job(job: Tuple[str, Dict[str, np.ndarray], bool]) -> int:
    """Pool worker: compress + write one shard; returns its file size."""
    fpath, arrays, compress = job
    save_shard(fpath, arrays, compress=compress)
    return os.path.getsize(fpath)


def pack_trace(
    trace: ColumnarTrace,
    out_dir: str,
    shard_events: int = DEFAULT_SHARD_EVENTS,
    compress: bool = True,
    source: Optional[Dict[str, Any]] = None,
    force: bool = False,
    workers: Optional[int] = 1,
) -> PackResult:
    """Write ``trace`` as a store directory of npz shards + manifest.

    ``workers`` fans the per-shard compress/write work over the shared
    worker pool (:mod:`repro.core.pool`; ``None``/``0`` = the pool
    default, ``1`` = sequential).  The manifest is assembled in submit
    order and ``np.savez`` archives carry no timestamps, so parallel
    output is byte-identical to a sequential pack.
    """
    if shard_events < 1:
        raise ValueError("shard_events must be >= 1")
    if os.path.exists(out_dir):
        stale = [f for f in os.listdir(out_dir)
                 if f == MANIFEST_NAME
                 or (f.startswith("shard-") and f.endswith(".npz"))]
        if stale and not force:
            raise FileExistsError(
                f"{out_dir} already holds a store; pass force=True "
                f"(--force) to overwrite")
        for f in stale:
            os.unlink(os.path.join(out_dir, f))
    else:
        os.makedirs(out_dir)

    cpus = trace.cpus
    parts = [trace.batches_by_cpu[c] for c in cpus]
    full = EventBatch.concat(parts) if parts else EventBatch.empty()
    ctx = ColumnarContext(full)

    shard_docs: List[Dict[str, Any]] = []
    bytes_written = 0
    total = 0
    index = 0
    row0 = 0
    # Shard writes flush through the worker pool in bounded waves so the
    # arrays of at most one wave are held in memory at a time; with
    # workers=1 each wave runs inline, which is exactly the historical
    # sequential pack.
    jobs: List[Tuple[str, Dict[str, np.ndarray], bool]] = []
    wave = max(8, 4 * pool.pool_workers(workers))

    def _flush() -> None:
        nonlocal bytes_written
        for size in pool.run_tasks(_write_shard_job, jobs, workers):
            bytes_written += size
        jobs.clear()

    for cpu, b in zip(cpus, parts):
        n = len(b)
        pid = ctx.pid[row0:row0 + n]
        known = ctx.known[row0:row0 + n]
        row0 += n
        if n == 0:
            continue
        cuts = _shard_cuts(b.seq, shard_events)
        for lo, hi in zip(cuts[:-1], cuts[1:]):
            rows = np.arange(lo, hi, dtype=np.int64)
            sub = b.select(rows)
            arrays = sub.to_arrays()
            arrays["pid"] = pid[lo:hi]
            arrays["pid_known"] = known[lo:hi]
            fname = shard_filename(index)
            fpath = os.path.join(out_dir, fname)
            jobs.append((fpath, arrays, compress))
            if len(jobs) >= wave:
                _flush()
            stats = ShardStats.compute(sub, pid[lo:hi], known[lo:hi])
            doc = stats.to_json()
            doc["file"] = fname
            if "time_big" in arrays:
                doc["time_big"] = True
            shard_docs.append(doc)
            total += len(sub)
            index += 1
    _flush()

    an = trace.anomaly_columns
    manifest: Dict[str, Any] = {
        "format": STORE_FORMAT,
        "version": STORE_VERSION,
        "compression": "zlib" if compress else "none",
        "cpus": cpus,
        "events": total,
        "source": source or {},
        "shards": shard_docs,
        "anomalies": {
            "cpu": list(an.cpu),
            "seq": list(an.seq),
            "offset": list(an.offset),
            "kind": list(an.kind),
            "detail": list(an.detail),
        },
    }
    write_manifest(out_dir, manifest)
    bytes_written += os.path.getsize(os.path.join(out_dir, MANIFEST_NAME))
    return PackResult(path=out_dir, shards=index, events=total, cpus=cpus,
                      bytes_written=bytes_written, anomalies=len(an))


def pack_records(
    records: Sequence[BufferRecord],
    out_dir: str,
    registry: Optional[EventRegistry] = None,
    strict: bool = False,
    shard_events: int = DEFAULT_SHARD_EVENTS,
    compress: bool = True,
    source: Optional[Dict[str, Any]] = None,
    force: bool = False,
    workers: Optional[int] = 1,
) -> PackResult:
    """Decode buffer records columnar and pack them."""
    trace = ColumnarTraceReader(
        registry=registry if registry is not None else default_registry(),
        strict=strict,
    ).decode_records(records)
    src = dict(source or {})
    src.setdefault("frames", len(records))
    src.setdefault("buffer_words",
                   len(records[0].words) if len(records) else 0)
    return pack_trace(trace, out_dir, shard_events=shard_events,
                      compress=compress, source=src, force=force,
                      workers=workers)

