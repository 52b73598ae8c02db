"""Reading a packed store: full reconstitution and pushed-down queries.

:meth:`TraceStore.trace` rebuilds the complete
:class:`~repro.core.columnar.ColumnarTrace` — per-CPU batches in decode
order, anomaly ledger, CPU universe including event-less CPUs — so any
tool runs on a store exactly as it would on a fresh decode, without
touching the raw word stream.

:meth:`TraceStore.query` is the fast path: the predicate is first
tested against each shard's manifest statistics
(:func:`~repro.store.query.shard_may_match`) and only surviving shards
are decompressed and row-filtered, making a selective query O(shards
touched) instead of O(trace).
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

import numpy as np

from repro.core.columnar import AnomalyColumns, ColumnarTrace, EventBatch
from repro.core.registry import EventRegistry, default_registry
from repro.store.cache import shard_cache
from repro.store.format import load_shard, read_manifest
from repro.store.query import Predicate, select, shard_may_match
from repro.store.stats import ShardStats


@dataclass
class ShardInfo:
    """One shard's manifest entry."""

    index: int
    file: str
    stats: ShardStats


@dataclass
class QueryResult:
    """Matching rows plus the pushdown accounting.

    ``batch`` rows arrive in shard (per-CPU decode) order; sort with
    ``batch.order_by_time()`` for the listing order.  ``pid``/
    ``pid_known`` are the context columns for exactly those rows.
    """

    batch: EventBatch
    pid: np.ndarray
    pid_known: np.ndarray
    shards_total: int
    shards_read: int
    rows_scanned: int
    #: per-node ``(read, total)`` shard counts — populated only for
    #: fleet stores (manifests that declare ``nodes``), else empty.
    node_shards: Dict[int, Tuple[int, int]] = field(default_factory=dict)

    @property
    def shards_pruned(self) -> int:
        return self.shards_total - self.shards_read

    def __len__(self) -> int:
        return len(self.batch)


class TraceStore:
    """A packed store directory, opened for reading.

    Shard payloads load lazily, in this process, through the
    process-wide :func:`~repro.store.cache.shard_cache`; the manifest —
    statistics, anomaly ledger, source info — loads once up front.
    """

    def __init__(self, path: str,
                 registry: Optional[EventRegistry] = None) -> None:
        self.path = path
        self.registry = (registry if registry is not None
                         else default_registry())
        manifest = read_manifest(path)
        self.version: int = manifest["version"]
        self.compression: str = manifest.get("compression", "zlib")
        self.cpus: List[int] = list(manifest.get("cpus", []))
        self.events: int = int(manifest.get("events", 0))
        self.source: Dict[str, Any] = manifest.get("source", {})
        #: node universe of a fleet store; [] for single-node stores.
        self.nodes: List[int] = list(manifest.get("nodes", []))
        #: fleet metadata (anchors, skew bound, per-node cpus); {} when
        #: the store was packed from a single trace.
        self.fleet_info: Dict[str, Any] = manifest.get("fleet", {})
        self.shards: List[ShardInfo] = [
            ShardInfo(index=i, file=doc["file"],
                      stats=ShardStats.from_json(doc))
            for i, doc in enumerate(manifest.get("shards", []))
        ]
        self._anomalies: Dict[str, List[Any]] = manifest.get("anomalies", {})

    def __len__(self) -> int:
        return self.events

    def anomaly_columns(self) -> AnomalyColumns:
        an = AnomalyColumns()
        a = self._anomalies
        for cpu, seq, off, kind, detail in zip(
                a.get("cpu", []), a.get("seq", []), a.get("offset", []),
                a.get("kind", []), a.get("detail", [])):
            an.append(cpu, seq, off, kind, detail)
        return an

    def _shard_key(self, info: ShardInfo):
        """Process-wide cache key: identity + freshness of the file."""
        fpath = os.path.join(self.path, info.file)
        try:
            st = os.stat(fpath)
        except OSError:
            return None
        return (os.path.abspath(fpath), st.st_size, st.st_mtime_ns)

    def load_shard(
        self, info: ShardInfo,
    ) -> Tuple[EventBatch, np.ndarray, np.ndarray]:
        """One shard's batch plus its context (pid, pid_known) columns."""
        return self._load_many([info])[0]

    def _load_many(
        self, infos: List[ShardInfo],
    ) -> List[Tuple[EventBatch, np.ndarray, np.ndarray]]:
        """Decoded shards in ``infos`` order: each from the process-wide
        shard cache, or read with :func:`~repro.store.format.load_shard`
        and cached.

        Every shard is looked up before any is read: reading as it went,
        a scan larger than the cache would evict the cached shards it
        is about to ask for, and a repeated scan would never hit.
        """
        cache = shard_cache()
        keys = [self._shard_key(info) for info in infos]
        out = [cache.get(key) if key is not None else None for key in keys]
        for i, (info, key) in enumerate(zip(infos, keys)):
            if out[i] is not None:
                continue
            arrays = load_shard(os.path.join(self.path, info.file))
            out[i] = (
                EventBatch.from_arrays(arrays, registry=self.registry),
                np.asarray(arrays["pid"]).astype(np.uint64, copy=False),
                np.asarray(arrays["pid_known"]).astype(bool, copy=False),
            )
            if key is not None:
                cache.put(key, out[i], sum(
                    np.asarray(a).nbytes for a in arrays.values()))
        return out

    def trace(self) -> ColumnarTrace:
        """The full trace, bit-identical to a fresh columnar decode.

        On a fleet store each lane concatenates that cpu's shards from
        every node (node-major, the pack order); the batches carry the
        ``node`` column, so the merged total order — which sorts on it —
        is still the unified fleet order.  Use :meth:`node_trace` for
        one node's stream alone.
        """
        by_cpu: Dict[int, List[EventBatch]] = {}
        for info, (batch, _, _) in zip(self.shards,
                                       self._load_many(self.shards)):
            by_cpu.setdefault(info.stats.cpu, []).append(batch)
        batches: Dict[int, EventBatch] = {}
        for cpu in self.cpus:
            parts = by_cpu.get(cpu)
            batches[cpu] = (EventBatch.concat(parts) if parts
                            else EventBatch.empty(self.registry))
        return ColumnarTrace(batches, self.anomaly_columns(), self.registry)

    def node_trace(self, node: int) -> ColumnarTrace:
        """One node's stream of a fleet store as a per-cpu trace.

        Times stay on the fleet clock (as packed); the node column is
        preserved.  Raises for unknown nodes so a typo'd ``--node``
        fails loudly instead of returning an empty trace.
        """
        if node not in self.nodes:
            raise ValueError(
                f"store has no node {node}; nodes are {self.nodes}")
        mine = [info for info in self.shards
                if (info.stats.node if info.stats.node is not None
                    else 0) == node]
        by_cpu: Dict[int, List[EventBatch]] = {}
        for info, (batch, _, _) in zip(mine, self._load_many(mine)):
            by_cpu.setdefault(info.stats.cpu, []).append(batch)
        cpus_by_node = self.fleet_info.get("cpus_by_node", {})
        cpus = [int(c) for c in cpus_by_node.get(str(node),
                                                 sorted(by_cpu))]
        batches: Dict[int, EventBatch] = {}
        for cpu in cpus:
            parts = by_cpu.get(cpu)
            batches[cpu] = (EventBatch.concat(parts) if parts
                            else EventBatch.empty(self.registry))
        return ColumnarTrace(batches, self.anomaly_columns(), self.registry)

    def query(self, pred: Predicate) -> QueryResult:
        """Rows matching ``pred``, reading only stat-overlapping shards."""
        picked = [info for info in self.shards
                  if shard_may_match(info.stats, pred, self.registry)]
        node_shards: Dict[int, Tuple[int, int]] = {}
        if self.nodes:
            read_ids = {info.index for info in picked}
            for n in self.nodes:
                mine = [info for info in self.shards
                        if (info.stats.node if info.stats.node is not None
                            else 0) == n]
                node_shards[n] = (
                    sum(1 for info in mine if info.index in read_ids),
                    len(mine),
                )
        batches: List[EventBatch] = []
        pids: List[np.ndarray] = []
        knowns: List[np.ndarray] = []
        rows_scanned = 0
        for batch, pid, known in self._load_many(picked):
            rows_scanned += len(batch)
            m = select(batch, pred, pid=pid, pid_known=known)
            if m.any():
                idx = np.flatnonzero(m)
                batches.append(batch.select(idx))
                pids.append(pid[idx])
                knowns.append(known[idx])
        if batches:
            out = EventBatch.concat(batches)
            pid_col = np.concatenate(pids)
            known_col = np.concatenate(knowns)
        else:
            out = EventBatch.empty(self.registry)
            pid_col = np.zeros(0, dtype=np.uint64)
            known_col = np.zeros(0, dtype=bool)
        return QueryResult(
            batch=out, pid=pid_col, pid_known=known_col,
            shards_total=len(self.shards), shards_read=len(picked),
            rows_scanned=rows_scanned, node_shards=node_shards,
        )
