"""Persistent columnar trace store with predicate-pushdown queries.

Every tool run used to re-decode the raw word stream into PR 5's
:class:`~repro.core.columnar.EventBatch` from scratch.  This package
makes the decoded columns durable: ``pack`` writes them once as
compressed npz shards cut at buffer boundaries (so random access
survives compression, Recorder-style), each carrying min/max statistics
— time window, CPU, major-ID bitmask, pid range — and queries prune
whole shards whose statistics cannot overlap the predicate before a
single byte of column data is decompressed ("Slicing Event Traces of
Large Software Systems": drop the majority of the trace a question
never touches).

The query layer (:mod:`repro.store.query`) is shared: the same
:class:`Predicate`/:func:`select` row semantics the six analysis tools
use against freshly decoded batches drive shard pruning in
:class:`TraceStore.query`, so a pushed-down answer is bit-identical to
a full scan.
"""

from repro.store.cache import ShardCache, shard_cache
from repro.store.format import (
    MANIFEST_NAME,
    STORE_FORMAT,
    STORE_VERSION,
    StoreFormatError,
    is_store,
)
from repro.store.query import (
    CYCLES_PER_SECOND,
    Predicate,
    aggregate,
    project,
    select,
    shard_may_match,
    time_window_mask,
)
from repro.store.reader import QueryResult, TraceStore
from repro.store.stats import ShardStats
from repro.store.writer import PackResult, pack_records, pack_trace

__all__ = [
    "CYCLES_PER_SECOND",
    "MANIFEST_NAME",
    "PackResult",
    "Predicate",
    "QueryResult",
    "STORE_FORMAT",
    "STORE_VERSION",
    "ShardCache",
    "ShardStats",
    "StoreFormatError",
    "shard_cache",
    "TraceStore",
    "aggregate",
    "is_store",
    "pack_records",
    "pack_trace",
    "project",
    "select",
    "shard_may_match",
    "time_window_mask",
]
