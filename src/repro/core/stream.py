"""Decoding the trace stream: sequential, random-access, and recovery.

Variable-length events normally destroy random access; K42 restores it
by guaranteeing that no event crosses a buffer (alignment) boundary
(§3.2).  A reader can therefore seek to any boundary and resume parsing.
This module implements:

* decoding of one buffer's words into events, with validity heuristics
  that detect the garbled regions a preempted/killed writer leaves
  behind (§3.1) and recover — by default *within* the buffer, rescanning
  forward for the next plausible header and salvaging the remainder
  (each salvage is reported as a ``recovered-region`` anomaly);
  ``strict=True`` restores the paper's minimal recovery of abandoning
  the rest of the buffer and resuming at the next alignment boundary;
* reconstruction of full 64-bit timestamps from the 32-bit header field
  plus the per-buffer timestamp-anchor events;
* merging per-CPU streams into one time-ordered stream;
* flat-array random access (seek to an arbitrary word offset, snap to
  the preceding boundary, decode from there).

One scan serves every consumer: :func:`scan_buffer` unpacks every
header field of a buffer in one set of numpy operations and walks the
precomputed columns, and :func:`unwrap_times` reconstructs timestamps as
a cumulative sum of exact 32-bit deltas.
:func:`repro.core.columnar.decode_records_columnar` folds those scans
into columns and is *the* decoder; :class:`TraceReader` is its
event-object view.  :mod:`repro.core.parallel` fans the same scan out
over worker processes — the §3.2 boundary guarantee is what makes each
buffer independently parsable.  The word-at-a-time reference walk the
scan is checked against lives in :mod:`repro.check.oracle`.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.core.buffers import BufferRecord
from repro.core.constants import (
    EXTENDED_FILLER_LENGTH,
    LENGTH_MASK,
    LENGTH_SHIFT,
    MAJOR_MASK,
    MAJOR_SHIFT,
    MINOR_MASK,
    TIMESTAMP_SHIFT,
)
from repro.core.majors import ControlMinor, Major
from repro.core.registry import EventRegistry, EventSpec

_U32 = 1 << 32
_HALF32 = 1 << 31
_CTRL = int(Major.CONTROL)
_ANCHOR = int(ControlMinor.TIMESTAMP_ANCHOR)

#: Minor IDs a CONTROL-class header may legitimately carry; anything else
#: in the CONTROL major is junk and disqualifies a resync candidate.
_KNOWN_CONTROL_MINORS = frozenset(int(m) for m in ControlMinor)


def sdelta32(a: int, b: int) -> int:
    """``a - b`` of 32-bit timestamps as a signed value in [-2^31, 2^31)."""
    d = (a - b) & (_U32 - 1)
    return d - _U32 if d >= _HALF32 else d


def _plausible_header(fields, o: int, limit: int,
                      prev_ts32: Optional[int]) -> bool:
    """Whether the word at ``o`` could be a live event header.

    ``fields(o)`` returns ``(ts32, length, major, minor)``.  Plausible
    means: a nonzero length that fits in the buffer, a believable
    major/minor combination (a CONTROL header must carry a known control
    minor), and — when ``prev_ts32`` is given — a timestamp that does
    not regress (mod 2^32) relative to the accepted stream.
    """
    ts, length, major, minor = fields(o)
    if length == 0 or o + length > limit:
        return False
    if major == Major.CONTROL and minor not in _KNOWN_CONTROL_MINORS:
        return False
    if prev_ts32 is not None and ((ts - prev_ts32) & (_U32 - 1)) >= _HALF32:
        # A full-width timestamp anchor is a legitimate resync point:
        # it exists precisely so the stream can span gaps the 32-bit
        # delta cannot represent (§3.2) — a late-attaching writer's
        # first words land seconds after the creator's buffer-0 anchor.
        if not _is_anchor_header(major, minor, length):
            return False
    return True


def _is_anchor_header(major: int, minor: int, length: int) -> bool:
    """Whether a header is a usable full-width timestamp anchor."""
    return major == _CTRL and minor == _ANCHOR and length >= 2


def find_resync(fields, start: int, limit: int,
                prev_ts32: Optional[int] = None) -> Optional[int]:
    """Locate the next plausible event header at or after ``start``.

    This is the §3.1 recovery story pushed below the alignment boundary:
    after a garble verdict, rescan forward word by word for a header
    whose length/major fields are valid, whose timestamp continues the
    accepted stream monotonically, and which *chains* — the header it
    points at must itself be plausible (or end the buffer exactly).
    Requiring two linked plausible headers keeps the false-acceptance
    rate on random garbage low (§3.1: "it is unlikely that random data
    will have the correct format of a trace event header").

    Two passes: the first holds candidates to the accepted timestamp
    state; if nothing qualifies — which happens when the accepted state
    itself was poisoned by a corrupt-but-well-shaped header — a second,
    shape-only pass requires only internal chain monotonicity.  Returns
    the offset of the accepted candidate, or ``None`` when the rest of
    the buffer holds nothing salvageable.
    """
    passes = (prev_ts32, None) if prev_ts32 is not None else (None,)
    for anchor in passes:
        for o in range(start, limit):
            if not _plausible_header(fields, o, limit, anchor):
                continue
            ts, length, _, _ = fields(o)
            nxt = o + length
            if nxt == limit or _plausible_header(fields, nxt, limit, ts):
                return o
    return None


@dataclass
class BufferColumns:
    """Per-word header fields of one buffer, unpacked in one batch.

    Four vectorized shift/mask operations plus ``tolist`` replace
    per-word Python arithmetic.  Every list has
    ``limit`` entries (the words actually reserved); entries at non-header
    offsets are meaningless and simply never consulted.
    """

    words: List[int]    # the raw words as Python ints
    ts32: List[int]     # bits 63..32 — the truncated timestamp
    length: List[int]   # bits 31..22 — total event length in words
    major: List[int]    # bits 21..16
    minor: List[int]    # bits 15..0
    limit: int
    #: The raw words as a uint64 array (the source the lists above were
    #: unpacked from).  The columnar reader slices payloads from it
    #: without a list round-trip; ``None`` for hand-built columns.
    arr: Optional[np.ndarray] = None


def buffer_columns(words: Union[np.ndarray, Sequence[int]],
                   fill_words: int) -> BufferColumns:
    """Unpack all header fields of a buffer with vectorized numpy ops."""
    arr = np.asarray(words, dtype=np.uint64)
    limit = min(fill_words, len(arr))
    arr = arr[:limit]
    return BufferColumns(
        words=arr.tolist(),
        ts32=(arr >> np.uint64(TIMESTAMP_SHIFT)).tolist(),
        length=((arr >> np.uint64(LENGTH_SHIFT)) & np.uint64(LENGTH_MASK)).tolist(),
        major=((arr >> np.uint64(MAJOR_SHIFT)) & np.uint64(MAJOR_MASK)).tolist(),
        minor=(arr & np.uint64(MINOR_MASK)).tolist(),
        limit=limit,
        arr=arr,
    )


@dataclass
class BufferScan:
    """One buffer's parse decisions: accepted event offsets plus garble.

    This is the unit of work decode workers ship back to the parent
    (:mod:`repro.core.parallel`): the offsets and the garble verdicts are
    the *only* outputs of the walk — every other event attribute is a
    pure function of the words, which the parent already holds.  A scan
    is therefore a few flat int lists, orders of magnitude cheaper to
    move between processes than a list of event objects.

    ``garbles`` and ``resumes`` run in parallel: for each garble verdict
    ``(offset, detail)`` the matching entry of ``resumes`` holds the
    offset where the recovery rescan resumed parsing, or ``None`` when
    the walk stopped there (strict mode, or nothing salvageable).
    """

    cols: BufferColumns
    offsets: List[int]      # word offset of each accepted event header
    garbles: List[Tuple[int, str]] = field(default_factory=list)
    resumes: List[Optional[int]] = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.offsets)

    def event_ts32(self) -> List[int]:
        """The accepted events' 32-bit timestamps, in stream order."""
        ts = self.cols.ts32
        return [ts[o] for o in self.offsets]


def scan_buffer(words: Union[np.ndarray, Sequence[int]],
                fill_words: int,
                cols: Optional[BufferColumns] = None,
                recover: bool = False) -> BufferScan:
    """Batched buffer walk: unpack all header fields at once, then parse.

    Semantically identical to the reference walk in
    :mod:`repro.check.oracle` — same validity checks, same garble
    details, same recovery.  With ``recover=False`` parsing stops
    at the first bad header (the next alignment boundary is the next
    buffer); with ``recover=True`` each garble triggers a
    :func:`find_resync` rescan and parsing resumes at the next plausible
    header, salvaging the remainder of the buffer.
    """
    if cols is None:
        cols = buffer_columns(words, fill_words)
    limit = cols.limit
    wl = cols.words
    ts_l = cols.ts32
    len_l = cols.length
    maj_l = cols.major
    min_l = cols.minor

    offsets: List[int] = []
    append = offsets.append
    garbles: List[Tuple[int, str]] = []
    resumes: List[Optional[int]] = []
    mask32 = _U32 - 1

    def fields(o: int) -> Tuple[int, int, int, int]:
        return ts_l[o], len_l[o], maj_l[o], min_l[o]

    off = 0
    prev_ts32: Optional[int] = None
    while off < limit:
        length = len_l[off]
        end = off + length
        verdict: Optional[str] = None
        if length == 0 or end > limit:
            # Rare path: an extended filler (length field is 0) or garble.
            if (
                length == EXTENDED_FILLER_LENGTH
                and maj_l[off] == Major.CONTROL
                and min_l[off] == ControlMinor.FILLER_EXT
            ):
                if off + 1 >= limit:
                    verdict = "truncated extended filler"
                else:
                    span = wl[off + 1]
                    if span < 2 or off + span > limit:
                        verdict = f"bad extended filler span {span}"
                    else:
                        end = off + span
            else:
                verdict = f"invalid header {wl[off]:#018x} (length {length})"
        if verdict is None:
            ts = ts_l[off]
            if (prev_ts32 is not None
                    and ((ts - prev_ts32) & mask32) >= _HALF32
                    and not _is_anchor_header(maj_l[off], min_l[off], length)):
                # A large backwards jump cannot come from a healthy stream:
                # per-CPU timestamps are monotonic by construction (§3.1).
                # Anchors are exempt — they carry the full value and exist
                # to bridge exactly such gaps (§3.2).
                verdict = f"timestamp regression {prev_ts32}->{ts}"
        if verdict is not None:
            garbles.append((off, verdict))
            if not recover:
                resumes.append(None)
                break
            resume = find_resync(fields, off + 1, limit, prev_ts32)
            resumes.append(resume)
            if resume is None:
                break
            if (prev_ts32 is not None
                    and ((ts_l[resume] - prev_ts32) & mask32) >= _HALF32):
                # Shape-only (relaxed) resync: the accepted timestamp
                # state was itself poisoned; restart the chain here.
                prev_ts32 = None
            off = resume
            continue
        append(off)
        prev_ts32 = ts
        off = end
    return BufferScan(cols, offsets, garbles, resumes)


def find_anchors(scan: BufferScan) -> List[Tuple[int, int]]:
    """All usable timestamp anchors: ``[(event index, full value), ...]``.

    An anchor must carry its full-width value as data (length >= 2) — a
    truncated anchor is useless, exactly the ``e.data`` guard of the
    reference walk.  A buffer can legitimately hold several: the creator
    anchors sequence 0, and every late-attaching writer logs a fresh
    anchor so its stream carries its own absolute base (§3.2).
    """
    cols = scan.cols
    major, minor, length, words = (cols.major, cols.minor, cols.length,
                                   cols.words)
    return [
        (i, words[off + 1])
        for i, off in enumerate(scan.offsets)
        if major[off] == _CTRL and minor[off] == _ANCHOR and length[off] >= 2
    ]


def unwrap_times(
    ts32: Sequence[int],
    last_full: Optional[int],
    last_ts32: Optional[int],
    anchors: Sequence[Tuple[int, int]] = (),
) -> Optional[List[int]]:
    """Vectorized full-timestamp reconstruction for one buffer.

    Full times are sums of the per-event signed 32-bit deltas around a
    base — an anchor's full value, or the previous buffer's last event.
    Integer addition is associative, so a cumulative sum of the deltas
    (exact in int64: each delta is in [-2^31, 2^31) and a buffer holds
    far fewer than 2^31 events) anchored at the base reproduces the
    event-by-event accumulation bit for bit.  The base itself stays a
    Python int, so arbitrarily large anchor values cannot overflow.

    ``anchors`` (from :func:`find_anchors`) may list several anchors:
    the reconstruction then re-bases at each one, because the 32-bit deltas
    *between* two anchors are not trustworthy — the gap they bridge can
    exceed what 32 bits can represent (a writer attaching seconds after
    the segment was created).  Events before the first anchor chain
    backward from it; events between anchor ``k`` and ``k+1`` chain
    forward from anchor ``k``.

    Returns the full times, or ``None`` when there is no basis (no
    anchor and no prior state) — the caller keeps times unset.
    """
    n = len(ts32)
    if n == 0:
        return None
    if not anchors and (last_full is None or last_ts32 is None):
        return None
    if n == 1:
        base = (
            anchors[0][1]
            if anchors
            else last_full + sdelta32(ts32[0], last_ts32)
        )
        return [base]
    a = np.asarray(ts32, dtype=np.int64)
    d = (a[1:] - a[:-1]) & np.int64(_U32 - 1)
    d = np.where(d >= np.int64(_HALF32), d - np.int64(_U32), d)
    cum = np.empty(n, dtype=np.int64)
    cum[0] = 0
    np.cumsum(d, out=cum[1:])
    cl = cum.tolist()
    if not anchors:
        base = last_full + sdelta32(ts32[0], last_ts32)
        return [base + c for c in cl]
    times: List[int] = [0] * n
    first_i = anchors[0][0]
    base = anchors[0][1] - cl[first_i]
    for j in range(first_i):
        times[j] = base + cl[j]
    for k, (i_k, t_k) in enumerate(anchors):
        end = anchors[k + 1][0] if k + 1 < len(anchors) else n
        base = t_k - cl[i_k]
        for j in range(i_k, end):
            times[j] = base + cl[j]
    return times


@dataclass(slots=True)
class TraceEvent:
    """One decoded trace event."""

    cpu: int
    seq: int          # buffer sequence number it was found in
    offset: int       # word offset within that buffer
    ts32: int         # truncated 32-bit timestamp from the header
    major: int
    minor: int
    data: List[int]
    time: Optional[int] = None      # reconstructed full 64-bit timestamp
    spec: Optional[EventSpec] = None

    @property
    def is_filler(self) -> bool:
        return self.major == Major.CONTROL and self.minor in (
            ControlMinor.FILLER,
            ControlMinor.FILLER_EXT,
        )

    @property
    def is_control(self) -> bool:
        return self.major == Major.CONTROL

    @property
    def name(self) -> str:
        if self.spec is not None:
            return self.spec.name
        return f"TRC_UNKNOWN_{self.major}_{self.minor}"

    def values(self) -> list:
        """Field values decoded per the registered layout."""
        if self.spec is None:
            return list(self.data)
        return self.spec.decode(self.data)

    def render(self) -> str:
        """Human-readable description (Figure 5, third column)."""
        if self.spec is None:
            return "data " + " ".join(f"{int(w):#x}" for w in self.data)
        return self.spec.render(self.data)


@dataclass
class Anomaly:
    """A detected inconsistency in the stream (garble, count mismatch)."""

    cpu: int
    seq: int
    offset: int
    #: "garbled" | "recovered-region" | "committed-mismatch" | "missing-anchor"
    kind: str
    detail: str


@dataclass
class Trace:
    """A fully decoded trace: per-CPU event lists plus anomalies."""

    events_by_cpu: Dict[int, List[TraceEvent]] = field(default_factory=dict)
    anomalies: List[Anomaly] = field(default_factory=list)

    @property
    def ncpus(self) -> int:
        return len(self.events_by_cpu)

    def events(self, cpu: int) -> List[TraceEvent]:
        return self.events_by_cpu.get(cpu, [])

    def all_events(self) -> List[TraceEvent]:
        """All events from all CPUs merged into timestamp order.

        Events lacking a reconstructed time sort before everything else
        on their CPU (they can only come from a stream head with no
        anchor, which the logger never produces in normal operation).
        """
        def key(e: TraceEvent):
            return (e.time if e.time is not None else -1, e.cpu, e.seq, e.offset)

        streams = [sorted(evs, key=key) for evs in self.events_by_cpu.values()]
        return list(heapq.merge(*streams, key=key))

    def filter(
        self,
        major: Optional[int] = None,
        minor: Optional[int] = None,
        name: Optional[str] = None,
        include_control: bool = False,
    ) -> List[TraceEvent]:
        out = []
        for e in self.all_events():
            if not include_control and e.is_control:
                continue
            if major is not None and e.major != major:
                continue
            if minor is not None and e.minor != minor:
                continue
            if name is not None and e.name != name:
                continue
            out.append(e)
        return out


class TraceReader:
    """Decodes :class:`BufferRecord` streams into :class:`Trace` objects.

    The event-object view of the one decoder: records go through
    :func:`repro.core.columnar.decode_records_columnar` and the columns
    are materialized as :class:`TraceEvent` lists.

    ``strict=False`` (the default) resynchronizes after a garble verdict
    — rescanning forward for the next plausible header and salvaging the
    rest of the buffer, each salvage reported as a ``recovered-region``
    anomaly.  ``strict=True`` preserves the stop-at-first-garble
    behavior: the rest of a garbled buffer is abandoned and parsing
    resumes at the next alignment boundary.  Clean traces decode
    identically either way.
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

    def decode_records(self, records: Iterable[BufferRecord]) -> Trace:
        """Decode a collection of buffer records (any CPUs, any order)."""
        from repro.core.columnar import decode_records_columnar

        return decode_records_columnar(
            records,
            registry=self.registry,
            include_fillers=self.include_fillers,
            check_committed=self.check_committed,
            strict=self.strict,
        ).to_trace()

    def decode_one(self, record: BufferRecord) -> Trace:
        """Random access: decode a single buffer independently.

        Works from any alignment boundary because each buffer carries its
        own timestamp anchor — the §3.2 property.
        """
        return self.decode_records([record])


# ----------------------------------------------------------------------
# Flat-array random access (§3.2 demonstration)
# ----------------------------------------------------------------------
def flat_records(
    words: Union[np.ndarray, Sequence[int]],
    buffer_words: int,
    cpu: int = 0,
    start_seq: int = 0,
) -> List[BufferRecord]:
    """View a flat word array (concatenated buffers) as buffer records.

    The array is what a raw on-disk trace looks like: back-to-back
    aligned buffers with no framing.  ``committed`` is unknown for raw
    data, so records are produced with committed checking disabled
    (callers should use a reader with ``check_committed=False``).
    """
    arr = np.asarray(words, dtype=np.uint64)
    records = []
    nbufs = (len(arr) + buffer_words - 1) // buffer_words
    for k in range(nbufs):
        chunk = arr[k * buffer_words : (k + 1) * buffer_words]
        fill = len(chunk)
        partial = fill < buffer_words
        records.append(
            BufferRecord(
                cpu=cpu,
                seq=start_seq + k,
                words=chunk,
                committed=fill,
                fill_words=fill,
                partial=partial,
            )
        )
    return records


def seek_boundary(word_offset: int, buffer_words: int) -> int:
    """Snap an arbitrary word offset back to its alignment boundary.

    ``word_offset`` must be non-negative and ``buffer_words`` positive —
    floor division would silently keep a negative offset negative and
    "snap" to a boundary that exists in no trace.
    """
    if buffer_words <= 0:
        raise ValueError(f"buffer_words must be positive, got {buffer_words}")
    if word_offset < 0:
        raise ValueError(f"word offset must be non-negative, got {word_offset}")
    return (word_offset // buffer_words) * buffer_words


def decode_from_offset(
    words: Union[np.ndarray, Sequence[int]],
    buffer_words: int,
    word_offset: int,
    registry: Optional[EventRegistry] = None,
    cpu: int = 0,
    strict: bool = False,
) -> Trace:
    """Seek into the middle of a flat trace and decode from there.

    This is the end-to-end demonstration of the paper's random-access
    property: pick any offset, snap to the preceding alignment boundary,
    and parsing proceeds as if from the beginning.  The offset must
    land inside the array: a negative or past-the-end offset names no
    boundary (the old behavior decoded from a wrong one — a negative
    offset sliced from the array's tail, a past-EOF offset produced an
    empty trace with an overshot start sequence — both silently).
    """
    n_words = len(words)
    if word_offset < 0 or (word_offset >= n_words and n_words > 0):
        raise ValueError(
            f"word offset {word_offset} outside the trace "
            f"(0 .. {n_words - 1})"
        )
    start = seek_boundary(word_offset, buffer_words)
    arr = np.asarray(words, dtype=np.uint64)[start:]
    records = flat_records(arr, buffer_words, cpu=cpu, start_seq=start // buffer_words)
    reader = TraceReader(registry=registry, check_committed=False, strict=strict)
    return reader.decode_records(records)
