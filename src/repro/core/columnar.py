"""Columnar trace analytics: structure-of-arrays event batches.

The analysis side of the paper (§4: listing, kmon, PC-sample profiling,
lock statistics) has to chew through traces from many processors
quickly.  PR 1 vectorized the *header scan*; this module vectorizes the
*analysis*: instead of materializing one Python
:class:`~repro.core.stream.TraceEvent` per event and walking them in
``if e.major != ...`` loops, a decoded trace is held as a
structure-of-arrays :class:`EventBatch` — one numpy column per header
field (timestamp, major, minor, length, CPU, word offset) plus the raw
buffer words — and tools select events with boolean masks and gather
payload words with fancy indexing.

Payload decoding is lazy and per-(major, minor) group: the layout
string of each registered event compiles (once, memoized) to a
:class:`~repro.core.packing.LayoutPlan` of static ``(word, shift,
width)`` positions, so a fixed-layout group like ``"64 64"`` decodes
with one gather and shift/mask per field instead of N
:func:`~repro.core.packing.unpack_values` calls.

This is the one decoder: every reader — sequential, parallel, live,
and the event-object :class:`~repro.core.stream.TraceReader` view —
folds :class:`~repro.core.stream.BufferScan` objects through
:class:`ColumnarAssembler`.  Equivalence contract: the output is
bit-identical to the reference walk (:mod:`repro.check.oracle`) on
clean *and* corrupted input, with garble/committed/anchor verdicts
surfacing in the same order as per-batch anomaly columns.
Every analysis tool reads these columns; ``ColumnarTrace.to_trace()``
is the one way to get event objects back for a whole trace.
"""

from __future__ import annotations

from collections import deque
from typing import (
    Deque, Dict, Iterable, List, Mapping, Optional, Sequence, Tuple, Union,
)

import numpy as np

from repro.core.buffers import BufferRecord
from repro.core.constants import (
    LENGTH_MASK,
    LENGTH_SHIFT,
    MAJOR_MASK,
    MAJOR_SHIFT,
    MINOR_MASK,
    TIMESTAMP_SHIFT,
)
from repro.core.majors import ControlMinor, Major
from repro.core.registry import EventRegistry, EventSpec
from repro.core.stream import (
    Anomaly,
    BufferScan,
    Trace,
    TraceEvent,
    _int_column,
    scan_buffers,
    unwrap_times,
)

_CTRL = int(Major.CONTROL)
_ANCHOR = int(ControlMinor.TIMESTAMP_ANCHOR)
_FILLER = int(ControlMinor.FILLER)
_FILLER_EXT = int(ControlMinor.FILLER_EXT)


def _compact_payloads(
    words: np.ndarray, base: np.ndarray, dlen: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """Gather just the payload words the given rows reference.

    Returns ``(pool, starts)``: row ``j``'s data is
    ``pool[starts[j] : starts[j] + dlen[j]]`` — one fancy-index gather
    for all rows instead of a slice per row.
    """
    n = len(dlen)
    starts = np.zeros(n, dtype=np.int64)
    if n:
        np.cumsum(dlen[:-1], out=starts[1:])
    total = int(dlen.sum()) if n else 0
    if total and len(words):
        src = (np.repeat(base + 1, dlen)
               + np.arange(total, dtype=np.int64)
               - np.repeat(starts, dlen))
        np.clip(src, 0, len(words) - 1, out=src)
        return words[src], starts
    return np.zeros(total, dtype=np.uint64), starts


#: The per-row columns of an :class:`EventBatch`, besides ``node``.
_ROW_COLUMNS = ("base", "cpu", "seq", "offset", "ts32", "major", "minor",
                "length", "dlen", "time", "timed")


def _strictly_increasing(key: Sequence[np.ndarray]) -> bool:
    """Whether each row of the key columns (most significant first) is
    lexicographically greater than the row before it."""
    tied = np.ones(max(len(key[0]) - 1, 0), dtype=bool)
    for col in key:
        prev, nxt = col[:-1], col[1:]
        if np.any(tied & (nxt < prev)):
            return False
        tied &= nxt == prev
    return not tied.any()


class EventBatch:
    """A structure-of-arrays view of decoded events.

    Per-event columns (all aligned, length ``len(batch)``):

    ``cpu``, ``seq``, ``offset``
        where the event came from (CPU, buffer sequence, word offset).
    ``ts32``, ``major``, ``minor``, ``length``
        the unpacked header fields (``length`` is the header's total
        word count for scan-built batches).
    ``dlen``
        payload word count, filler-aware (a plain filler has no data).
    ``time``, ``timed``
        reconstructed full timestamp and whether one exists; ``time``
        is 0 where ``timed`` is False.
    ``base``
        index of the event's *header* word in :attr:`words`; payload
        word ``k`` lives at ``words[base + 1 + k]``.

    ``words`` is the shared raw uint64 word pool the payloads are
    gathered from (events reference it, slices share it).

    ``node`` is an optional per-event origin-node column for fleet
    (multi-machine) traces.  ``None`` — the single-node case — means
    "implicitly node 0" and keeps every pre-fleet code path and
    serialized byte untouched; a merged fleet view materializes it.
    """

    __slots__ = (
        "words", "base", "cpu", "seq", "offset", "ts32", "major",
        "minor", "length", "dlen", "time", "timed", "registry",
        "_spec_cache", "_keys", "node", "_stream", "_ordered",
    )

    def __init__(
        self,
        words: np.ndarray,
        base: np.ndarray,
        cpu: np.ndarray,
        seq: np.ndarray,
        offset: np.ndarray,
        ts32: np.ndarray,
        major: np.ndarray,
        minor: np.ndarray,
        length: np.ndarray,
        dlen: np.ndarray,
        time: np.ndarray,
        timed: np.ndarray,
        registry: Optional[EventRegistry] = None,
        spec_cache: Optional[Dict[int, Optional[EventSpec]]] = None,
        node: Optional[np.ndarray] = None,
    ) -> None:
        self.words = words
        self.base = base
        self.cpu = cpu
        self.seq = seq
        self.offset = offset
        self.ts32 = ts32
        self.major = major
        self.minor = minor
        self.length = length
        self.dlen = dlen
        self.time = time
        self.timed = timed
        self.registry = registry
        self._spec_cache: Dict[int, Optional[EventSpec]] = (
            spec_cache if spec_cache is not None else {}
        )
        self._keys: Optional[np.ndarray] = None
        self.node = node
        #: The stream-order permutation once known, and whether the rows
        #: are already in it, once tested (see :meth:`order_by_stream`).
        self._stream: Optional[np.ndarray] = None
        self._ordered: Optional[bool] = None

    # -- construction ---------------------------------------------------
    @classmethod
    def empty(cls, registry: Optional[EventRegistry] = None) -> "EventBatch":
        z = np.zeros(0, dtype=np.int64)
        return cls(np.zeros(0, dtype=np.uint64), z, z, z, z, z, z, z, z, z,
                   z.copy(), np.zeros(0, dtype=bool), registry)

    @classmethod
    def from_events(
        cls,
        events: Sequence[TraceEvent],
        registry: Optional[EventRegistry] = None,
    ) -> "EventBatch":
        """Columnarize already-materialized events (compatibility path).

        Synthesizes a word pool from the events' data; ``base`` points
        one word *before* each payload (there is no header word to point
        at), which keeps the ``words[base + 1 + k]`` payload rule intact.
        ``length`` is synthesized as ``dlen + 1``.
        """
        n = len(events)
        if n == 0:
            return cls.empty(registry)
        dlen = np.fromiter((len(e.data) for e in events), dtype=np.int64,
                           count=n)
        starts = np.zeros(n, dtype=np.int64)
        np.cumsum(dlen[:-1], out=starts[1:])
        total = int(dlen.sum())
        words = np.fromiter(
            (w for e in events for w in e.data), dtype=np.uint64, count=total,
        )
        specs: Dict[int, Optional[EventSpec]] = {}
        for e in events:
            specs.setdefault((e.major << 16) | e.minor, e.spec)
        return cls(
            words=words,
            base=starts - 1,
            cpu=np.fromiter((e.cpu for e in events), dtype=np.int64, count=n),
            seq=np.fromiter((e.seq for e in events), dtype=np.int64, count=n),
            offset=np.fromiter((e.offset for e in events), dtype=np.int64,
                               count=n),
            ts32=np.fromiter((e.ts32 for e in events), dtype=np.int64,
                             count=n),
            major=np.fromiter((e.major for e in events), dtype=np.int64,
                              count=n),
            minor=np.fromiter((e.minor for e in events), dtype=np.int64,
                              count=n),
            length=dlen + 1,
            dlen=dlen,
            time=_int_column([e.time if e.time is not None else 0
                              for e in events]),
            timed=np.fromiter((e.time is not None for e in events),
                              dtype=bool, count=n),
            registry=registry,
            spec_cache=specs,
        )

    @classmethod
    def concat(cls, batches: Sequence["EventBatch"]) -> "EventBatch":
        """Concatenate batches; word pools merge with rebased indices."""
        batches = [b for b in batches]
        if not batches:
            return cls.empty(None)
        if len(batches) == 1:
            return batches[0]
        shift = 0
        bases = []
        for b in batches:
            bases.append(b.base + shift)
            shift += len(b.words)
        if any(b.time.dtype == object for b in batches):
            time = np.concatenate([b.time.astype(object) for b in batches])
        else:
            time = np.concatenate([b.time for b in batches])
        registry = next((b.registry for b in batches
                         if b.registry is not None), None)
        specs: Dict[int, Optional[EventSpec]] = {}
        for b in batches:
            for k, v in b._spec_cache.items():
                specs.setdefault(k, v)
        if any(b.node is not None for b in batches):
            # Node-less inputs are implicitly node 0.
            node: Optional[np.ndarray] = np.concatenate(
                [b.node if b.node is not None
                 else np.zeros(len(b), dtype=np.int64) for b in batches])
        else:
            node = None
        return cls(
            words=np.concatenate([b.words for b in batches]),
            base=np.concatenate(bases),
            cpu=np.concatenate([b.cpu for b in batches]),
            seq=np.concatenate([b.seq for b in batches]),
            offset=np.concatenate([b.offset for b in batches]),
            ts32=np.concatenate([b.ts32 for b in batches]),
            major=np.concatenate([b.major for b in batches]),
            minor=np.concatenate([b.minor for b in batches]),
            length=np.concatenate([b.length for b in batches]),
            dlen=np.concatenate([b.dlen for b in batches]),
            time=time,
            timed=np.concatenate([b.timed for b in batches]),
            registry=registry,
            spec_cache=specs,
            node=node,
        )

    # -- serialization ---------------------------------------------------
    def to_arrays(self) -> Dict[str, np.ndarray]:
        """Serialize to plain fixed-dtype arrays (the store shard codec).

        The shared word pool is compacted to just the payload words each
        row references, with ``base`` rewritten to the
        :meth:`from_events` convention (one word before each payload),
        so a serialized batch carries no header/filler words and no
        inter-row sharing.  Safe because the scanner only accepts events
        that fit their buffer: every row's ``words[base+1 : base+1+dlen]``
        slice is fully in-pool, so the compacted gather reproduces it
        exactly.  Times that overflowed int64 (corrupt anchors) are
        emitted as decimal strings under ``time_big``; everything else
        stays numeric, so the dict round-trips through ``np.savez``
        with ``allow_pickle=False``.
        """
        dlen = self.dlen
        pool, starts = _compact_payloads(self.words, self.base, dlen)
        out: Dict[str, np.ndarray] = {
            "words": pool,
            "base": starts - 1,
            "cpu": self.cpu,
            "seq": self.seq,
            "offset": self.offset,
            "ts32": self.ts32,
            "major": self.major,
            "minor": self.minor,
            "length": self.length,
            "dlen": dlen,
            "timed": self.timed,
        }
        if self.time.dtype == object:
            out["time_big"] = np.array(
                [str(t) for t in self.time.tolist()], dtype=np.str_)
        else:
            out["time"] = self.time
        if self.node is not None:
            # Only fleet batches carry the key: single-node serialized
            # bytes stay identical to the pre-fleet format.
            out["node"] = self.node
        return out

    @classmethod
    def from_arrays(
        cls,
        arrays: Mapping[str, np.ndarray],
        registry: Optional[EventRegistry] = None,
    ) -> "EventBatch":
        """Inverse of :meth:`to_arrays` (accepts a loaded npz mapping).

        Bit-identical round trip: ``events()``, payload gathers, masks
        and both orderings match the source batch row for row.
        """
        def col(name: str, dtype: type) -> np.ndarray:
            return np.asarray(arrays[name]).astype(dtype, copy=False)

        if "time_big" in arrays:
            raw = np.asarray(arrays["time_big"])
            if len(raw):
                time = np.array([int(s) for s in raw.tolist()], dtype=object)
            else:
                time = np.zeros(0, dtype=np.int64)
        else:
            time = col("time", np.int64)
        return cls(
            words=col("words", np.uint64),
            base=col("base", np.int64),
            cpu=col("cpu", np.int64),
            seq=col("seq", np.int64),
            offset=col("offset", np.int64),
            ts32=col("ts32", np.int64),
            major=col("major", np.int64),
            minor=col("minor", np.int64),
            length=col("length", np.int64),
            dlen=col("dlen", np.int64),
            time=time,
            timed=col("timed", bool),
            registry=registry,
            node=col("node", np.int64) if "node" in arrays else None,
        )

    # -- shape ----------------------------------------------------------
    def __len__(self) -> int:
        return len(self.cpu)

    def select(self, sel: np.ndarray) -> "EventBatch":
        """A new batch of the selected rows (mask or index array).

        The word pool and spec cache are shared, not copied.
        """
        sel = np.asarray(sel)
        if sel.dtype == np.bool_:
            sel = np.flatnonzero(sel)
        return self._gather(sel)

    def _gather(self, rows: np.ndarray,
                release: bool = False) -> "EventBatch":
        """The batch of ``rows``; with ``release``, each of this batch's
        row columns is dropped as soon as it is gathered.

        Releasing is for a batch nobody else holds, such as a fresh
        concatenation: its columns are then freed one by one, and the
        gathers reuse that memory instead of touching new pages.
        """
        cols = {}
        for name in _ROW_COLUMNS:
            cols[name] = getattr(self, name)[rows]
            if release:
                setattr(self, name, None)
        return EventBatch(
            words=self.words,
            registry=self.registry,
            spec_cache=self._spec_cache,
            node=self.node[rows] if self.node is not None else None,
            **cols,
        )

    # -- fleet ----------------------------------------------------------
    def node_column(self) -> np.ndarray:
        """Node id per row; a node-less batch is implicitly node 0."""
        if self.node is not None:
            return self.node
        return np.zeros(len(self), dtype=np.int64)

    def with_node(self, node_id: int) -> "EventBatch":
        """This batch tagged as originating from ``node_id``.

        All other columns (and the word pool) are shared, not copied.
        """
        return EventBatch(
            words=self.words,
            base=self.base,
            cpu=self.cpu,
            seq=self.seq,
            offset=self.offset,
            ts32=self.ts32,
            major=self.major,
            minor=self.minor,
            length=self.length,
            dlen=self.dlen,
            time=self.time,
            timed=self.timed,
            registry=self.registry,
            spec_cache=self._spec_cache,
            node=np.full(len(self), int(node_id), dtype=np.int64),
        )

    # -- masks ----------------------------------------------------------
    def keys(self) -> np.ndarray:
        """``(major << 16) | minor`` per event (cached)."""
        if self._keys is None:
            self._keys = (self.major << np.int64(16)) | self.minor
        return self._keys

    def control_mask(self) -> np.ndarray:
        return self.major == _CTRL

    def mask(
        self,
        major: Optional[int] = None,
        minor: Optional[int] = None,
        min_data: Optional[int] = None,
    ) -> np.ndarray:
        """Boolean selection by major/minor/minimum payload length."""
        m = np.ones(len(self), dtype=bool)
        if major is not None:
            m &= self.major == int(major)
        if minor is not None:
            m &= self.minor == int(minor)
        if min_data is not None:
            m &= self.dlen >= int(min_data)
        return m

    def spec_for(self, major: int, minor: int) -> Optional[EventSpec]:
        key = (major << 16) | minor
        if key in self._spec_cache:
            return self._spec_cache[key]
        spec = (self.registry.lookup(major, minor)
                if self.registry is not None else None)
        self._spec_cache[key] = spec
        return spec

    def name_of(self, major: int, minor: int) -> str:
        spec = self.spec_for(major, minor)
        if spec is not None:
            return spec.name
        return f"TRC_UNKNOWN_{major}_{minor}"

    def mask_names(self, names: Iterable[str]) -> np.ndarray:
        """Events whose (self-describing) name is in ``names``.

        Resolved per unique (major, minor) key, not per event: one
        registry probe per distinct event type in the batch.
        """
        wanted = set(names)
        if not wanted or len(self) == 0:
            return np.zeros(len(self), dtype=bool)
        keys = self.keys()
        uniq = np.unique(keys)
        hit = [k for k in uniq.tolist()
               if self.name_of(k >> 16, k & 0xFFFF) in wanted]
        if not hit:
            return np.zeros(len(self), dtype=bool)
        return np.isin(keys, np.array(hit, dtype=np.int64))

    # -- payload access -------------------------------------------------
    def data_column(self, k: int,
                    sel: Optional[np.ndarray] = None) -> np.ndarray:
        """Payload word ``k`` of each (selected) event, as one gather.

        Indices are clipped to the word pool, so a row whose ``dlen``
        is ``<= k`` yields an arbitrary (in-pool) word — callers must
        mask on ``dlen`` before trusting the value, exactly as scalar
        tools guard with ``len(e.data) >= ...``.
        """
        base = self.base if sel is None else self.base[np.asarray(sel)]
        if len(self.words) == 0:
            return np.zeros(len(base), dtype=np.uint64)
        idx = base + 1 + k
        np.clip(idx, 0, len(self.words) - 1, out=idx)
        return self.words[idx]

    def field_columns(
        self, spec: EventSpec, sel: Optional[np.ndarray] = None
    ) -> Optional[List[np.ndarray]]:
        """Decode a fixed-layout group vectorized via its compiled plan.

        One gather plus shift/mask per layout field; ``None`` when the
        layout is variable-length (``str``) and cannot be vectorized.
        Rows must already be selected down to events of this spec with
        sufficient ``dlen`` (``spec.fixed_data_words``).
        """
        plan = spec.plan
        if not plan.vectorizable:
            return None
        out: List[np.ndarray] = []
        word_cache: Dict[int, np.ndarray] = {}
        for f in plan.fields:
            assert f is not None
            widx, shift, width = f
            w = word_cache.get(widx)
            if w is None:
                w = word_cache[widx] = self.data_column(widx, sel)
            out.append(
                (w >> np.uint64(shift)) & np.uint64((1 << width) - 1)
            )
        return out

    # -- ordering -------------------------------------------------------
    def time_key(self) -> np.ndarray:
        """The merge key: full time, with -1 standing in for "no time"."""
        if self.time.dtype == object:
            return np.array(
                [t if f else -1
                 for t, f in zip(self.time.tolist(), self.timed.tolist())],
                dtype=object,
            )
        return np.where(self.timed, self.time, np.int64(-1))

    def order_by_time(self) -> np.ndarray:
        """Indices sorting by the ``Trace.all_events`` total order:
        ``(time | -1, cpu, seq, offset)``.

        A batch carrying a ``node`` column sorts by ``(time | -1, node,
        cpu, seq, offset)`` — the node component makes the merged fleet
        order a total order, so the unified view is invariant under the
        ingest order of the per-node traces.

        One stable sort by time over :meth:`order_by_stream`: rows equal
        in time keep their stream order, which is exactly the rest of
        the key.  Rows a decode hands over are already in stream order,
        so that is one sort of one key, merging the per-CPU runs.
        """
        tk = self.time_key()
        if tk.dtype == object:
            tkl = tk.tolist()
            cl = self.cpu.tolist()
            sl = self.seq.tolist()
            ol = self.offset.tolist()
            if self.node is not None:
                nl = self.node.tolist()
                idx = sorted(range(len(self)),
                             key=lambda i: (tkl[i], nl[i], cl[i],
                                            sl[i], ol[i]))
            else:
                idx = sorted(range(len(self)),
                             key=lambda i: (tkl[i], cl[i], sl[i], ol[i]))
            return np.array(idx, dtype=np.int64)
        stream = self.order_by_stream()
        if self._ordered:
            return np.argsort(tk, kind="stable")
        return stream[np.argsort(tk[stream], kind="stable")]

    def order_by_stream(self) -> np.ndarray:
        """Indices sorting by decode order: ``(cpu, seq, offset)``
        (``(node, cpu, seq, offset)`` for fleet batches).

        Computed once per batch and read-only.  Rows already strictly in
        that order (one O(n) column test) are their own order; only
        rows that fail the test pay the sort: duplicate sequences from
        a damaged file, and rows in time order (a fleet view, a
        ``select()`` of a merged batch).  A merged batch is handed its
        stream order by :meth:`ColumnarTrace.batch`.
        """
        if self._stream is None:
            key = [self.cpu, self.seq, self.offset]
            if self.node is not None:
                key.insert(0, self.node)
            # Strictly: with no ties, the identity is the only stream
            # order.
            self._ordered = _strictly_increasing(key)
            if self._ordered:
                stream = np.arange(len(self), dtype=np.int64)
            else:
                stream = np.lexsort(key[::-1])
            stream.flags.writeable = False
            self._stream = stream
        return self._stream

    # -- materialization (compatibility) --------------------------------
    def event(self, i: int) -> TraceEvent:
        """Materialize row ``i`` as a scalar-identical TraceEvent."""
        return self.events(np.array([i], dtype=np.int64))[0]

    def events(self, sel: Optional[np.ndarray] = None) -> List[TraceEvent]:
        """Materialize (selected) rows as scalar-identical TraceEvents.

        Bit-identical to what the scalar reader would have produced for
        the same rows: Python-int data lists, ``None`` time where no
        timestamp was reconstructed, specs resolved from the registry.
        """
        b = self if sel is None else self.select(sel)
        if len(b) == 0:
            return []
        # Column-wise: one tolist() per column and one gather for all
        # payloads, so the per-event work is a list slice and a
        # constructor call.
        dlen = b.dlen
        pool, starts = _compact_payloads(b.words, b.base, dlen)
        pl = pool.tolist()
        data = [pl[s:s + d] for s, d in zip(starts.tolist(), dlen.tolist())]
        times = b.time.tolist()
        if not b.timed.all():
            times = [t if f else None
                     for t, f in zip(times, b.timed.tolist())]
        keys = b.keys().tolist()
        spec_of = {k: b.spec_for(k >> 16, k & 0xFFFF) for k in set(keys)}
        return list(map(
            TraceEvent,
            b.cpu.tolist(), b.seq.tolist(), b.offset.tolist(),
            b.ts32.tolist(), b.major.tolist(), b.minor.tolist(),
            data, times, map(spec_of.__getitem__, keys),
        ))


class AnomalyColumns:
    """Anomaly verdicts as parallel columns, in scalar-report order."""

    __slots__ = ("cpu", "seq", "offset", "kind", "detail")

    def __init__(self) -> None:
        self.cpu: List[int] = []
        self.seq: List[int] = []
        self.offset: List[int] = []
        self.kind: List[str] = []
        self.detail: List[str] = []

    def append(self, cpu: int, seq: int, offset: int,
               kind: str, detail: str) -> None:
        self.cpu.append(cpu)
        self.seq.append(seq)
        self.offset.append(offset)
        self.kind.append(kind)
        self.detail.append(detail)

    def __len__(self) -> int:
        return len(self.kind)

    def counts(self) -> Dict[str, int]:
        out: Dict[str, int] = {}
        for k in self.kind:
            out[k] = out.get(k, 0) + 1
        return out

    def to_list(self) -> List[Anomaly]:
        """Materialize as :class:`Anomaly` objects (scalar order)."""
        return [
            Anomaly(c, s, o, k, d)
            for c, s, o, k, d in zip(self.cpu, self.seq, self.offset,
                                     self.kind, self.detail)
        ]


class _CpuAccumulator:
    """One CPU's accepted buffers while a trace is being assembled.

    Only what the walk decided is kept per buffer — the word array, the
    accepted header offsets and the sequence number; ``finish`` unpacks
    the header fields and reconstructs the times of all of a CPU's
    events at once.  Buffers that yielded no event are not kept.
    """

    __slots__ = ("words", "offsets", "seqs")

    def __init__(self) -> None:
        self.words: List[np.ndarray] = []
        self.offsets: List[np.ndarray] = []
        self.seqs: List[int] = []


class ColumnarAssembler:
    """Accumulates per-buffer scans into per-CPU event columns.

    ``add_buffer`` only records what the walk decided; ``finish`` folds
    each CPU's buffers in one set of array operations: header fields,
    fillers, and timestamps stitched across buffers from a carried
    ``(last_full, last_ts32)`` state per CPU.  Anomalies are reported
    per buffer, in the order buffers were added; the output is columns,
    never ``TraceEvent`` objects.  Buffers must be added in (cpu, seq)
    order, the order the sequential reader visits them.
    """

    def __init__(
        self,
        registry: Optional[EventRegistry] = None,
        include_fillers: bool = False,
        check_committed: bool = True,
    ) -> None:
        self.registry = registry
        self.include_fillers = include_fillers
        self.check_committed = check_committed
        self._acc: Dict[int, _CpuAccumulator] = {}
        #: Every buffer that can raise an anomaly, in arrival order:
        #: (cpu, seq, position among the CPU's kept buffers or -1,
        #: garbles, resumes, committed-mismatch detail or None).
        self._ledger: List[Tuple[int, int, int, List[Tuple[int, str]],
                                 List[Optional[int]], Optional[str]]] = []
        self._state: Dict[int, Tuple[int, int]] = {}

    def add_buffer(self, rec: BufferRecord, scan: BufferScan) -> None:
        """Record one scanned buffer for the next ``finish``/``take``.

        Nothing is decoded yet: ``finish`` reconstructs every time from
        the buffer's own words.
        """
        cpu = rec.cpu
        acc = self._acc.get(cpu)
        if acc is None:
            acc = self._acc[cpu] = _CpuAccumulator()
        if not 0 <= rec.seq < 1 << 63:
            # Only a damaged frame/dump header yields such a sequence
            # number; it cannot be ordered (or held in the int64 ``seq``
            # column), so the buffer is distrusted whole.
            self._ledger.append((
                cpu, rec.seq, -1,
                [(0, f"implausible buffer sequence number {rec.seq}; "
                     f"buffer skipped")], [None], None))
            return
        kept = -1
        if len(scan.offsets):
            kept = len(acc.seqs)
            acc.words.append(scan.cols.arr)
            acc.offsets.append(np.asarray(scan.offsets, dtype=np.int64))
            acc.seqs.append(rec.seq)
        mismatch = None
        if (self.check_committed and not rec.partial
                and rec.committed != rec.fill_words):
            # The §3.1 ``traceCommit`` consistency check.
            mismatch = (f"committed {rec.committed} words, buffer holds "
                        f"{rec.fill_words}")
        if kept >= 0 or scan.garbles or mismatch:
            self._ledger.append((cpu, rec.seq, kept, scan.garbles,
                                 scan.resumes, mismatch))

    def take(self) -> "ColumnarTrace":
        """Drain everything accumulated since the last take as a chunk.

        The per-CPU timestamp-stitching state survives the drain, so
        interleaving ``add_buffer`` calls with ``take`` decodes
        bit-identically to one uninterrupted assemble-then-finish —
        this is the incremental seam the live follower builds on.
        Anomaly columns drain with their chunk; the next chunk starts
        a fresh ledger.
        """
        return self.finish()

    def finish(self) -> "ColumnarTrace":
        """Fold what was added into per-CPU batches and the anomaly list.

        The accumulated buffers are consumed; only the stitching state
        stays behind.
        """
        batches: Dict[int, EventBatch] = {}
        verdicts: Dict[int, Tuple[np.ndarray, np.ndarray]] = {}
        for cpu in sorted(self._acc):
            batches[cpu], timed, anchored = self._cpu_batch(
                cpu, self._acc[cpu])
            verdicts[cpu] = timed, anchored
        # Anomalies, in exactly the reference decoder's per-buffer
        # order: garbles/recoveries, committed mismatch, missing anchor.
        an = AnomalyColumns()
        for cpu, seq, kept, garbles, resumes, mismatch in self._ledger:
            for (off, detail), resume in zip(garbles, resumes):
                an.append(cpu, seq, off, "garbled", detail)
                if resume is not None:
                    an.append(cpu, seq, off, "recovered-region",
                              f"skipped {resume - off} words; "
                              f"resynchronized at offset {resume}")
            if mismatch is not None:
                an.append(cpu, seq, 0, "committed-mismatch", mismatch)
            if kept >= 0:
                timed, anchored = verdicts[cpu]
                if timed[kept] and not anchored[kept]:
                    an.append(cpu, seq, 0, "missing-anchor",
                              "no timestamp anchor; times unwrapped "
                              "from previous buffer")
        self._acc = {}
        self._ledger = []
        return ColumnarTrace(batches, an, self.registry)

    def _cpu_batch(
        self, cpu: int, acc: _CpuAccumulator
    ) -> Tuple[EventBatch, np.ndarray, np.ndarray]:
        """Unpack the header fields of all of one CPU's events at once.

        Returns the batch and, per kept buffer, whether its events got
        times and whether it held an anchor.
        """
        none = np.zeros(0, dtype=bool)
        if not acc.seqs:
            return EventBatch.empty(self.registry), none, none
        counts = np.array([len(o) for o in acc.offsets], dtype=np.int64)
        sizes = np.array([len(w) for w in acc.words], dtype=np.int64)

        words = np.concatenate(acc.words)
        offset = np.concatenate(acc.offsets)
        base = offset + np.repeat(np.cumsum(sizes) - sizes, counts)
        hdr = words[base]
        ts32 = (hdr >> np.uint64(TIMESTAMP_SHIFT)).astype(np.int64)
        length = ((hdr >> np.uint64(LENGTH_SHIFT))
                  & np.uint64(LENGTH_MASK)).astype(np.int64)
        major = ((hdr >> np.uint64(MAJOR_SHIFT))
                 & np.uint64(MAJOR_MASK)).astype(np.int64)
        minor = (hdr & np.uint64(MINOR_MASK)).astype(np.int64)
        is_ctrl = major == _CTRL

        # Usable anchors carry their full-width value as data.
        at = np.flatnonzero(is_ctrl & (minor == _ANCHOR) & (length >= 2))
        time, timed, anchored = self._cpu_times(
            cpu, np.cumsum(counts) - counts, ts32, at, words[base[at] + 1])

        dlen = length - 1
        f_plain = is_ctrl & (minor == _FILLER)
        f_ext = is_ctrl & (minor == _FILLER_EXT)
        # Plain fillers carry no data; a real extended filler
        # (header length 0) carries exactly its span word.
        dlen[f_plain] = 0
        dlen[f_ext & (length == 0)] = 1
        columns = [
            base, offset, np.repeat(np.array(acc.seqs, dtype=np.int64),
                                    counts),
            ts32, major, minor, length, dlen, time, np.repeat(timed, counts),
        ]
        if not self.include_fillers:
            keep = ~(f_plain | f_ext)
            if not keep.all():
                columns = [c[keep] for c in columns]
        base, offset, seq, ts32, major, minor, length, dlen, time, is_timed \
            = columns
        if not len(base):
            return EventBatch.empty(self.registry), timed, anchored
        return EventBatch(
            words=words, base=base,
            cpu=np.full(len(base), cpu, dtype=np.int64),
            seq=seq, offset=offset, ts32=ts32, major=major, minor=minor,
            length=length, dlen=dlen, time=time, timed=is_timed,
            registry=self.registry,
        ), timed, anchored

    def _cpu_times(
        self,
        cpu: int,
        first: np.ndarray,
        ts32: np.ndarray,
        at: np.ndarray,
        values: np.ndarray,
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Full times of all of one CPU's events, and the stitching state.

        ``first`` is each kept buffer's first event; ``at`` and ``values``
        are the anchors' events and full-width values (a buffer may hold
        several — the creator anchors sequence 0, every late-attaching
        writer logs its own, §3.2).  Each anchor re-bases the cumulative
        sum of 32-bit deltas; the first anchor of a buffer governs that
        buffer from its first event, and a buffer without one chains on
        from the event before it.  Returns the time column and, per
        buffer, whether its events got times and whether it held an
        anchor.
        """
        owner = np.searchsorted(first, at, side="right") - 1
        anchored = np.zeros(len(first), dtype=bool)
        anchored[owner] = True

        last_full, last_ts32 = self._state.get(cpu, (None, None))
        # Without a carried state, buffers before the first anchored one
        # have no basis and stay untimed.
        head = int(owner[0]) if last_full is None and len(at) else 0
        t0 = int(first[head])
        leads = np.ones(len(at), dtype=bool)
        leads[1:] = owner[1:] != owner[:-1]
        tail = unwrap_times(
            ts32[t0:], last_full, last_ts32,
            list(zip((at - t0).tolist(), values.tolist())),
            (np.where(leads, first[owner], at) - t0).tolist())
        if tail is None:
            return (np.zeros(len(ts32), dtype=np.int64),
                    np.zeros(len(first), dtype=bool), anchored)
        self._state[cpu] = (int(tail[-1]), int(ts32[-1]))
        time = tail if not t0 else np.concatenate(
            [np.zeros(t0, dtype=tail.dtype), tail])
        return time, np.arange(len(first)) >= head, anchored


class ColumnarTrace:
    """A decoded trace held as per-CPU :class:`EventBatch` columns.

    Tools call :meth:`batch` (through :func:`as_batch`) and stay columnar
    end to end.  There is no per-event surface: :meth:`to_trace` is the
    one explicit step to event objects, for consumers that want them.
    """

    def __init__(
        self,
        batches_by_cpu: Dict[int, EventBatch],
        anomaly_columns: Optional[AnomalyColumns] = None,
        registry: Optional[EventRegistry] = None,
    ) -> None:
        self.batches_by_cpu = batches_by_cpu
        self.registry = registry
        self._anomaly_columns = (anomaly_columns if anomaly_columns
                                 is not None else AnomalyColumns())
        self._merged: Optional[EventBatch] = None
        self._anomalies: Optional[List[Anomaly]] = None

    # -- columnar surface -----------------------------------------------
    @property
    def anomaly_columns(self) -> AnomalyColumns:
        return self._anomaly_columns

    def cpu_batch(self, cpu: int) -> EventBatch:
        """This CPU's events in decode order."""
        return self.batches_by_cpu.get(cpu, EventBatch.empty(self.registry))

    def batch(self) -> EventBatch:
        """All CPUs merged into the ``all_events`` total order (cached).

        The per-CPU batches concatenate in stream order, so the merge is
        one stable sort by time.  When the concatenation is strictly in
        stream order, the inverse of that sort *is* the merged batch's
        stream order, and it is handed down so tools that replay per CPU
        (:meth:`EventBatch.order_by_stream`) do not sort again.
        """
        if self._merged is None:
            parts = [self.batches_by_cpu[c]
                     for c in sorted(self.batches_by_cpu)]
            cat = EventBatch.concat(parts) if parts \
                else EventBatch.empty(self.registry)
            order = cat.order_by_time()
            # A concatenation of several batches is this method's own.
            merged = cat._gather(order, release=len(parts) > 1)
            if cat._ordered:
                stream = np.empty_like(order)
                stream[order] = np.arange(len(order), dtype=order.dtype)
                stream.flags.writeable = False
                merged._stream = stream
            self._merged = merged
        return self._merged

    @property
    def cpus(self) -> List[int]:
        return sorted(self.batches_by_cpu)

    @property
    def ncpus(self) -> int:
        return len(self.batches_by_cpu)

    @property
    def anomalies(self) -> List[Anomaly]:
        if self._anomalies is None:
            self._anomalies = self._anomaly_columns.to_list()
        return self._anomalies

    def to_trace(self) -> Trace:
        """Materialize as a plain :class:`Trace` (bit-identical).

        The only way from columns to event objects for a whole trace:
        one :class:`TraceEvent` per row, built per CPU in decode order.
        """
        return Trace(events_by_cpu={cpu: self.batches_by_cpu[cpu].events()
                                    for cpu in self.cpus},
                     anomalies=list(self.anomalies))


class WindowedBatches:
    """A flight-recorder window over incremental :class:`EventBatch` chunks.

    A live monitor cannot hold an unbounded trace: like the kernel's
    flight-recorder mode, it keeps the most recent events and lets the
    oldest fall off the back.  Chunks (the per-CPU batches of one
    :meth:`ColumnarAssembler.take`) are appended in arrival order;
    once the total event count exceeds ``max_events`` the oldest whole
    chunks are evicted — granularity is the chunk, so peak residency is
    ``O(max_events + largest chunk)``, never the full trace.

    ``trace()`` exposes the live window as an ordinary
    :class:`ColumnarTrace`: per-CPU concatenation preserves decode
    order, and the merged batch's total order is identical to a
    post-mortem decode of the same events, so every columnar tool runs
    on a window unchanged.  The CPU universe is the union of all CPUs
    ever seen — a CPU whose events were all evicted (or that has
    logged nothing yet) still contributes an empty lane, exactly as in
    a post-mortem decode.

    Anomaly columns are cumulative, not windowed: they are the damage
    ledger of the whole run (a few rows per incident), so eviction
    never hides that something was once wrong.
    """

    def __init__(
        self,
        max_events: Optional[int] = None,
        registry: Optional[EventRegistry] = None,
    ) -> None:
        if max_events is not None and max_events <= 0:
            raise ValueError("max_events must be positive (or None)")
        self.max_events = max_events
        self.registry = registry
        self.anomaly_columns = AnomalyColumns()
        #: (cpu, batch) in arrival order — the eviction queue.
        self._chunks: Deque[Tuple[int, EventBatch]] = deque()
        self._cpus: set = set()
        self.total_events = 0
        self.evicted_events = 0
        self.evicted_chunks = 0

    def __len__(self) -> int:
        return self.total_events

    def absorb(self, chunk: "ColumnarTrace") -> None:
        """Fold one incremental chunk (batches + anomalies) in."""
        for cpu in sorted(chunk.batches_by_cpu):
            self._cpus.add(cpu)
            b = chunk.batches_by_cpu[cpu]
            if len(b):
                self._chunks.append((cpu, b))
                self.total_events += len(b)
        ac = chunk.anomaly_columns
        for c, s, o, k, d in zip(ac.cpu, ac.seq, ac.offset,
                                 ac.kind, ac.detail):
            self.anomaly_columns.append(c, s, o, k, d)
        self._evict()

    def _evict(self) -> None:
        if self.max_events is None:
            return
        # Always keep at least one chunk: a single chunk larger than
        # the window is delivered whole rather than silently split.
        while self.total_events > self.max_events and len(self._chunks) > 1:
            _cpu, b = self._chunks.popleft()
            self.total_events -= len(b)
            self.evicted_events += len(b)
            self.evicted_chunks += 1

    def trace(self) -> "ColumnarTrace":
        """The current window as a :class:`ColumnarTrace`."""
        parts: Dict[int, List[EventBatch]] = {cpu: [] for cpu in self._cpus}
        for cpu, b in self._chunks:
            parts[cpu].append(b)
        batches = {
            cpu: (EventBatch.concat(bs) if bs
                  else EventBatch.empty(self.registry))
            for cpu, bs in parts.items()
        }
        anomalies = AnomalyColumns()
        ac = self.anomaly_columns
        for c, s, o, k, d in zip(ac.cpu, ac.seq, ac.offset,
                                 ac.kind, ac.detail):
            anomalies.append(c, s, o, k, d)
        return ColumnarTrace(batches, anomalies, self.registry)


# ----------------------------------------------------------------------
# Decoding entry points
# ----------------------------------------------------------------------
def decode_records_columnar(
    records: Iterable[BufferRecord],
    registry: Optional[EventRegistry] = None,
    include_fillers: bool = False,
    check_committed: bool = True,
    strict: bool = False,
) -> ColumnarTrace:
    """Sequential decode of buffer records (any CPUs, any order)."""
    by_cpu: Dict[int, List[BufferRecord]] = {}
    for rec in records:
        by_cpu.setdefault(rec.cpu, []).append(rec)
    asm = ColumnarAssembler(registry=registry,
                            include_fillers=include_fillers,
                            check_committed=check_committed)
    for cpu, recs in sorted(by_cpu.items()):
        recs.sort(key=lambda r: r.seq)
        scans = scan_buffers([(rec.words, rec.fill_words) for rec in recs],
                             recover=not strict)
        for rec, scan in zip(recs, scans):
            asm.add_buffer(rec, scan)
    return asm.finish()


class ColumnarTraceReader:
    """Reader object over :func:`decode_records_columnar`.

    ``decode_records`` returns a :class:`ColumnarTrace`; its
    ``to_trace()`` materializes the event-object view
    :class:`~repro.core.stream.TraceReader` hands out.
    """

    def __init__(
        self,
        registry: Optional[EventRegistry] = None,
        include_fillers: bool = False,
        check_committed: bool = True,
        strict: bool = False,
    ) -> None:
        self.registry = registry
        self.include_fillers = include_fillers
        self.check_committed = check_committed
        self.strict = strict

    def decode_records(
        self, records: Iterable[BufferRecord]
    ) -> ColumnarTrace:
        return decode_records_columnar(
            records,
            registry=self.registry,
            include_fillers=self.include_fillers,
            check_committed=self.check_committed,
            strict=self.strict,
        )

    def decode_one(self, record: BufferRecord) -> ColumnarTrace:
        return self.decode_records([record])

    def decode_file(self, path) -> ColumnarTrace:
        """Load a ``.k42`` trace file and decode it columnar."""
        from repro.core.writer import load_records

        return self.decode_records(load_records(path, strict=self.strict))


def as_batch(
    trace: Union[Trace, ColumnarTrace, EventBatch],
) -> EventBatch:
    """The merged, time-ordered :class:`EventBatch` for any trace form.

    For a :class:`ColumnarTrace` this is the (cached) column merge; for
    a plain :class:`Trace` the events are columnarized once and the
    batch is cached on the instance, so repeated tool calls pay the
    conversion only once.
    """
    if isinstance(trace, EventBatch):
        return trace
    if isinstance(trace, ColumnarTrace):
        return trace.batch()
    batch = getattr(trace, "_columnar_batch", None)
    if batch is None:
        batch = EventBatch.from_events(trace.all_events())
        trace._columnar_batch = batch  # type: ignore[attr-defined]
    return batch
