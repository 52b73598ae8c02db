"""Merging N per-node traces into one clock-aligned columnar view.

A :class:`FleetView` holds two things per node: the node's *original*
decoded trace — untouched, on its own local timebase, so any tool run
against it is bit-identical to analyzing that node's trace alone — and
the :class:`~repro.core.clockmap.ClockMap` that re-bases those local
timestamps onto the common fleet clock.  The unified :meth:`batch
<FleetView.batch>` concatenates the re-based per-node streams (in node
order) and sorts them with the node-aware total order ``(time | -1,
node, cpu, seq, offset)``, so the merged view is **bit-identical
regardless of the order the node traces were ingested** — the property
the fuzz suite asserts.

Ingest accepts the three per-node trace shapes the repo produces:
plain ``.k42`` files, packed store directories, and live shared-memory
regions (``shm:NAME``, drained through the PR 6 collector).  A merged
view packs into an ordinary store via :func:`pack_fleet_view`; the
shards then carry the ``node`` column and per-shard node statistics,
so ``repro-trace query --node`` prunes whole nodes without opening
their shards.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.clockmap import ClockAnchors, ClockMap
from repro.core.columnar import (
    AnomalyColumns,
    ColumnarTrace,
    EventBatch,
    decode_records_columnar,
)
from repro.core.registry import EventRegistry, default_registry
from repro.core.writer import load_records
from repro.store.format import (
    MANIFEST_NAME,
    STORE_FORMAT,
    STORE_VERSION,
    save_shard,
    shard_filename,
    write_manifest,
)
from repro.store.stats import ShardStats
from repro.store.writer import DEFAULT_SHARD_EVENTS, PackResult, _shard_cuts

#: Sidecar naming convention: ``trace.k42`` + this suffix carries the
#: node id and anchor pairs the launcher sampled for that trace.
ANCHORS_SUFFIX = ".anchors.json"

#: Ingest scheme prefix for live shared-memory regions.
_SHM_SCHEME = "shm:"


@dataclass
class NodeSource:
    """One node's trace plus its (optional) clock anchors."""

    node: int
    trace: ColumnarTrace
    anchors: Optional[ClockAnchors] = None


class FleetView:
    """N per-node traces unified onto one fleet clock.

    ``node_trace`` returns the originals (local timebase) — per-node
    tool output over a merged view is therefore *identical* to running
    the tool on that node's trace alone.  ``batch`` is the unified
    re-based view; ``rollup_trace`` re-keys every (node, cpu) stream to
    a distinct global lane so existing per-cpu tools aggregate the
    whole fleet unchanged.
    """

    def __init__(
        self,
        traces: Dict[int, ColumnarTrace],
        clock_map: ClockMap,
        registry: Optional[EventRegistry] = None,
    ) -> None:
        if not traces:
            raise ValueError("a fleet view needs at least one node")
        missing = sorted(set(traces) - set(clock_map.streams))
        if missing:
            raise ValueError(f"no map for nodes {missing} in the clock map")
        self._traces = dict(traces)
        self.clock_map = clock_map
        self.registry = (registry if registry is not None
                         else next((t.registry for t in traces.values()
                                    if t.registry is not None), None))
        self._aligned: Dict[int, Dict[int, EventBatch]] = {}
        self._merged: Optional[EventBatch] = None
        self._rollup: Optional[ColumnarTrace] = None

    # -- shape ----------------------------------------------------------
    @property
    def nodes(self) -> List[int]:
        return sorted(self._traces)

    def __len__(self) -> int:
        return sum(len(t.batch()) for t in self._traces.values())

    def node_trace(self, node: int) -> ColumnarTrace:
        """The node's original trace, on its own local timebase."""
        return self._traces[node]

    # -- aligned views ---------------------------------------------------
    def aligned_cpu_batch(self, node: int, cpu: int) -> EventBatch:
        """One (node, cpu) stream in decode order, re-based and tagged."""
        per_node = self._aligned.setdefault(node, {})
        if cpu not in per_node:
            b = self._traces[node].cpu_batch(cpu)
            per_node[cpu] = _with_columns(
                b,
                time=self.clock_map.rebase(node, b.time, b.timed),
                node=np.full(len(b), int(node), dtype=np.int64),
            )
        return per_node[cpu]

    def batch(self) -> EventBatch:
        """The unified fleet view, in the node-aware total order.

        Built from nodes in sorted-id order, so the result — including
        the underlying word-pool layout — does not depend on ingest
        order.
        """
        if self._merged is None:
            parts = [self.aligned_cpu_batch(node, cpu)
                     for node in self.nodes
                     for cpu in self._traces[node].cpus]
            cat = (EventBatch.concat(parts) if parts
                   else EventBatch.empty(self.registry))
            if cat.node is None:
                # Single empty node: still a fleet batch.
                cat = cat.with_node(self.nodes[0]) if len(cat) == 0 \
                    else cat
            self._merged = cat.select(cat.order_by_time())
        return self._merged

    # -- rollup ---------------------------------------------------------
    def lane_stride(self) -> int:
        """Lanes per node in the rollup: 1 + the fleet's largest cpu id."""
        top = -1
        for t in self._traces.values():
            if t.cpus:
                top = max(top, max(t.cpus))
        return top + 1 if top >= 0 else 1

    def lane_of(self, node: int, cpu: int) -> int:
        return int(node) * self.lane_stride() + int(cpu)

    def lane_legend(self) -> List[Tuple[int, int, int]]:
        """``(lane, node, cpu)`` rows, lane-ordered."""
        return [(self.lane_of(node, cpu), node, cpu)
                for node in self.nodes
                for cpu in self._traces[node].cpus]

    def rollup_trace(self) -> ColumnarTrace:
        """The whole fleet as one trace, one lane per (node, cpu).

        Existing per-cpu tools (kmon timelines, schedstats) run on it
        unchanged; :meth:`lane_legend` decodes the lane ids back to
        (node, cpu).  Anomaly rows are re-keyed the same way.
        """
        if self._rollup is None:
            batches: Dict[int, EventBatch] = {}
            an = AnomalyColumns()
            for node in self.nodes:
                trace = self._traces[node]
                for cpu in trace.cpus:
                    lane = self.lane_of(node, cpu)
                    b = self.aligned_cpu_batch(node, cpu)
                    batches[lane] = _with_columns(
                        b, cpu=np.full(len(b), lane, dtype=np.int64))
                cols = trace.anomaly_columns
                for c, s, o, k, d in zip(cols.cpu, cols.seq, cols.offset,
                                         cols.kind, cols.detail):
                    an.append(self.lane_of(node, c), s, o, k, d)
            self._rollup = ColumnarTrace(batches, an, self.registry)
        return self._rollup

    # -- reporting -------------------------------------------------------
    def skew_bound(self, jitter: int = 0) -> int:
        return self.clock_map.skew_bound(jitter)

    def summary(self) -> Dict[str, Any]:
        """Per-node and fleet-level counts for CLI/manifest reporting."""
        per_node = {}
        for node in self.nodes:
            t = self._traces[node]
            per_node[str(node)] = {
                "events": len(t.batch()),
                "cpus": t.cpus,
                "anomalies": len(t.anomaly_columns),
                "aligned": node in self.clock_map.anchors,
            }
        return {
            "nodes": self.nodes,
            "events": len(self),
            "skew_bound": self.skew_bound(),
            "per_node": per_node,
        }


def fleet_sections(
    view: FleetView,
    node_render: Callable[[ColumnarTrace], str],
    rollup_render: Callable[[], str],
) -> str:
    """The fleet report shape every fleet-capable tool shares.

    A header with the fleet counts and skew bound, then one section per
    node rendered from the node's *original* trace (so each section is
    byte-identical to running the tool on that node's trace alone),
    then the tool's fleet-rollup section.
    """
    s = view.summary()
    lines = [
        f"fleet: {len(s['nodes'])} nodes, {s['events']} events, "
        f"residual skew bound <= {s['skew_bound']} cycles",
    ]
    for node in view.nodes:
        info = s["per_node"][str(node)]
        basis = "anchored" if info["aligned"] else "identity"
        cpus = ",".join(str(c) for c in info["cpus"])
        lines.append("")
        lines.append(f"=== node {node}: {info['events']} events, "
                     f"cpus [{cpus}], {basis} clock ===")
        lines.append(node_render(view.node_trace(node)))
    lines.append("")
    lines.append("=== fleet rollup ===")
    lines.append(rollup_render())
    return "\n".join(lines)


def lane_legend_line(view: FleetView) -> str:
    """One-line decode of rollup lane ids back to (node, cpu)."""
    return "lanes: " + ", ".join(
        f"{lane}=node{node}/cpu{cpu}"
        for lane, node, cpu in view.lane_legend())


def _with_columns(b: EventBatch, **cols: np.ndarray) -> EventBatch:
    """A shallow copy of ``b`` with the given columns replaced."""
    kw: Dict[str, Any] = dict(
        words=b.words, base=b.base, cpu=b.cpu, seq=b.seq, offset=b.offset,
        ts32=b.ts32, major=b.major, minor=b.minor, length=b.length,
        dlen=b.dlen, time=b.time, timed=b.timed, registry=b.registry,
        spec_cache=b._spec_cache, node=b.node,
    )
    kw.update(cols)
    return EventBatch(**kw)


# -- merging --------------------------------------------------------------

def merge_traces(
    sources: Sequence[NodeSource],
    registry: Optional[EventRegistry] = None,
) -> FleetView:
    """Build a :class:`FleetView` from per-node sources, any order.

    Sources without anchors get the identity map (their times are
    already fleet time); duplicate node ids are an error, not a silent
    last-wins.
    """
    if not sources:
        raise ValueError("nothing to merge")
    traces: Dict[int, ColumnarTrace] = {}
    anchors: Dict[int, ClockAnchors] = {}
    for src in sources:
        if src.node in traces:
            raise ValueError(f"duplicate node id {src.node}")
        traces[src.node] = src.trace
        if src.anchors is not None:
            anchors[src.node] = src.anchors
    return FleetView(traces, ClockMap(traces, anchors), registry=registry)


def ingest_source(
    path: str,
    registry: Optional[EventRegistry] = None,
    strict: bool = False,
    store: bool = False,
) -> Tuple[ColumnarTrace, Dict[str, Any]]:
    """Decode one trace from any supported source shape.

    The one place that decides the shape: ``shm:NAME`` drains a live
    shared-memory region through the PR 6 collector; a store directory
    (auto-detected, or asserted with ``store=True``) is read from its
    shards with no word-stream decode; anything else is a ``.k42`` file.
    Beside the trace come the facts a store manifest keeps about its
    origin (``frames``, ``buffer_words``).  Every read runs in this
    process.
    """
    from repro.store import TraceStore, is_store

    reg = registry if registry is not None else default_registry()
    if path.startswith(_SHM_SCHEME):
        from repro.shm import ShmCollector, ShmTraceRegion

        region = ShmTraceRegion.attach(path[len(_SHM_SCHEME):])
        try:
            records = ShmCollector(region).finalize()
        finally:
            region.close()
    elif store or is_store(path):
        st = TraceStore(path, registry=reg)
        return st.trace(), st.source
    else:
        records = load_records(path, strict=strict)
    trace = decode_records_columnar(records, registry=reg, strict=strict)
    return trace, {
        "frames": len(records),
        "buffer_words": len(records[0].words) if records else 0,
    }


def ingest_path(
    path: str,
    registry: Optional[EventRegistry] = None,
    strict: bool = False,
    store: bool = False,
) -> ColumnarTrace:
    """:func:`ingest_source`'s trace alone."""
    return ingest_source(path, registry, strict, store)[0]


def write_anchor_sidecar(path: str, node: int, anchors: ClockAnchors,
                         meta: Optional[Dict[str, Any]] = None) -> str:
    """Write ``path``'s anchor sidecar; returns the sidecar path."""
    side = path + ANCHORS_SUFFIX
    doc: Dict[str, Any] = {"node": int(node)}
    doc.update(anchors.to_json())
    if meta:
        doc["meta"] = meta
    with open(side, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return side


def read_anchor_sidecar(
    path: str,
) -> Optional[Tuple[int, ClockAnchors]]:
    """The ``(node, anchors)`` of ``path``'s sidecar, or None."""
    side = path + ANCHORS_SUFFIX
    if not os.path.exists(side):
        return None
    with open(side, "r", encoding="utf-8") as fh:
        doc = json.load(fh)
    return int(doc["node"]), ClockAnchors.from_json(doc)


def merge_paths(
    paths: Sequence[str],
    registry: Optional[EventRegistry] = None,
    strict: bool = False,
) -> FleetView:
    """Ingest per-node trace paths and merge them.

    Node ids and anchors come from each path's ``.anchors.json``
    sidecar when present; a sidecar-less path is assigned its position
    in ``paths`` as node id and the identity alignment.
    """
    sources: List[NodeSource] = []
    for i, path in enumerate(paths):
        trace = ingest_path(path, registry=registry, strict=strict)
        side = (read_anchor_sidecar(path)
                if not path.startswith(_SHM_SCHEME) else None)
        if side is not None:
            node, anchors = side
            sources.append(NodeSource(node=node, trace=trace,
                                      anchors=anchors))
        else:
            sources.append(NodeSource(node=i, trace=trace))
    return merge_traces(sources, registry=registry)


# -- packing --------------------------------------------------------------

def pack_fleet_view(
    view: FleetView,
    out_dir: str,
    shard_events: int = DEFAULT_SHARD_EVENTS,
    compress: bool = True,
    source: Optional[Dict[str, Any]] = None,
    force: bool = False,
) -> PackResult:
    """Pack the unified (re-based) fleet view as a store directory.

    Same layout as :func:`repro.store.writer.pack_trace` — npz shards
    cut at buffer boundaries, manifest with per-shard statistics — but
    shards walk nodes in id order, every shard carries the ``node``
    column and its node statistic, and the manifest declares the node
    universe plus the alignment metadata (anchors, skew bound, each
    node's cpu set).  Times in the store are fleet time.
    """
    from repro.tools.context import ColumnarContext

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

    shard_docs: List[Dict[str, Any]] = []
    an_cpu: List[int] = []
    an_seq: List[int] = []
    an_off: List[int] = []
    an_kind: List[str] = []
    an_detail: List[str] = []
    an_node: List[int] = []
    bytes_written = 0
    total = 0
    index = 0
    cpus_by_node: Dict[str, List[int]] = {}
    for node in view.nodes:
        trace = view.node_trace(node)
        cpus = trace.cpus
        cpus_by_node[str(node)] = cpus
        parts = [view.aligned_cpu_batch(node, c) for c in cpus]
        full = EventBatch.concat(parts) if parts else EventBatch.empty()
        ctx = ColumnarContext(full)
        row0 = 0
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
                save_shard(fpath, arrays, compress=compress)
                bytes_written += os.path.getsize(fpath)
                stats = ShardStats.compute(sub, pid[lo:hi], known[lo:hi])
                doc = stats.to_json()
                doc["file"] = fname
                if "time_big" in arrays:
                    doc["time_big"] = True
                shard_docs.append(doc)
                total += len(sub)
                index += 1
        cols = trace.anomaly_columns
        an_cpu.extend(cols.cpu)
        an_seq.extend(cols.seq)
        an_off.extend(cols.offset)
        an_kind.extend(cols.kind)
        an_detail.extend(cols.detail)
        an_node.extend([node] * len(cols))

    all_cpus = sorted({c for cs in cpus_by_node.values() for c in cs})
    manifest: Dict[str, Any] = {
        "format": STORE_FORMAT,
        "version": STORE_VERSION,
        "compression": "zlib" if compress else "none",
        "cpus": all_cpus,
        "events": total,
        "source": source or {},
        "shards": shard_docs,
        "anomalies": {
            "cpu": an_cpu,
            "seq": an_seq,
            "offset": an_off,
            "kind": an_kind,
            "detail": an_detail,
            # Extra fleet column; readers of the 5 standard columns
            # ignore it.
            "node": an_node,
        },
        "nodes": view.nodes,
        "fleet": {
            "skew_bound": view.skew_bound(),
            "anchors": view.clock_map.to_json(),
            "cpus_by_node": cpus_by_node,
        },
    }
    write_manifest(out_dir, manifest)
    bytes_written += os.path.getsize(os.path.join(out_dir, MANIFEST_NAME))
    return PackResult(path=out_dir, shards=index, events=total,
                      cpus=all_cpus, bytes_written=bytes_written,
                      anomalies=len(an_kind))
