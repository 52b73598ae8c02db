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

One walk serves every consumer: :func:`scan_buffers` pools a run of
buffers, computes every word's step to the next header as one numpy
column and follows it with one hop per event; a buffer in which a
validity check would fire goes to :func:`scan_buffer`, the full walk
that words the verdicts and resynchronizes.  :func:`unwrap_times`
reconstructs timestamps as a cumulative sum of exact 32-bit deltas.
:func:`repro.core.columnar.decode_records_columnar` folds those scans
into columns and is *the* decoder; :class:`TraceReader` is its
event-object view.  :mod:`repro.core.parallel` fans the same walk out
over worker processes — the §3.2 boundary guarantee is what makes each
buffer independently parsable.  The word-at-a-time reference walk and
resync the decoder is checked against live in :mod:`repro.check.oracle`.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from functools import cached_property
from itertools import accumulate
from typing import (
    Dict, Iterable, List, Optional, Sequence, Set, Tuple, Union,
)

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
_M32 = _U32 - 1
_CTRL = int(Major.CONTROL)
_ANCHOR = int(ControlMinor.TIMESTAMP_ANCHOR)

#: Minor IDs a CONTROL-class header may legitimately carry, as a lookup
#: table over the 16-bit minor field; anything else in the CONTROL major
#: is junk and disqualifies a resync candidate.
_KNOWN_CONTROL_MINOR = np.zeros(MINOR_MASK + 1, dtype=bool)
_KNOWN_CONTROL_MINOR[[int(m) for m in ControlMinor]] = True

# Header bit groups, as plain ints: a word read from a ``memoryview`` and
# a ``uint64`` column take the same constant.
#: The length bits; the major/minor bits and their value in a timestamp
#: anchor of any length.
_LEN_BITS = LENGTH_MASK << LENGTH_SHIFT
_KIND_BITS = (MAJOR_MASK << MAJOR_SHIFT) | MINOR_MASK
_ANCHOR_KIND = (_CTRL << MAJOR_SHIFT) | _ANCHOR
#: Length, major and minor together, and their value in an extended
#: filler (length field 0, CONTROL, FILLER_EXT).
_SHAPE_BITS = _LEN_BITS | _KIND_BITS
_FILLER_EXT_SHAPE = (EXTENDED_FILLER_LENGTH << LENGTH_SHIFT) \
    | (_CTRL << MAJOR_SHIFT) | int(ControlMinor.FILLER_EXT)


def sdelta32(a: int, b: int) -> int:
    """``a - b`` of 32-bit timestamps as a signed value in [-2^31, 2^31)."""
    d = (a - b) & _M32
    return d - _U32 if d >= _HALF32 else d


def _is_anchor_header(major: int, minor: int, length: int) -> bool:
    """Whether a header is a usable full-width timestamp anchor."""
    return major == _CTRL and minor == _ANCHOR and length >= 2


def _int_column(values: Sequence[int]) -> np.ndarray:
    """An integer column that survives arbitrarily large values.

    Reconstructed full times are Python ints and — on corrupt anchors —
    can exceed int64.  The common case packs into int64; the pathological
    case falls back to an object column, which every consumer handles
    (comparisons and ``tolist`` behave identically, just slower).
    """
    try:
        return np.array(values, dtype=np.int64)
    except OverflowError:
        return np.array(values, dtype=object)


class BufferColumns:
    """Per-word header fields of one buffer, each unpacked on first use.

    Every column has ``limit`` entries (the words actually reserved);
    entries at non-header offsets are meaningless and simply never
    consulted.  The walks read single words from ``arr``; only a resync
    rescan, which has to judge every word of a tail, asks for columns.
    """

    def __init__(self, words: Union[np.ndarray, Sequence[int]],
                 fill_words: int) -> None:
        arr = np.asarray(words, dtype=np.uint64)
        self.limit = min(fill_words, len(arr))
        #: The raw words, cut at ``limit``.
        self.arr = arr[:self.limit]

    @cached_property
    def ts32(self) -> np.ndarray:
        """Bits 63..32 — the truncated timestamp."""
        return (self.arr >> TIMESTAMP_SHIFT).astype(np.int64)

    @cached_property
    def length(self) -> np.ndarray:
        """Bits 31..22 — total event length in words."""
        return ((self.arr >> LENGTH_SHIFT) & LENGTH_MASK).astype(np.int64)

    @cached_property
    def major(self) -> np.ndarray:
        """Bits 21..16."""
        return ((self.arr >> MAJOR_SHIFT) & MAJOR_MASK).astype(np.int64)

    @cached_property
    def minor(self) -> np.ndarray:
        """Bits 15..0."""
        return (self.arr & MINOR_MASK).astype(np.int64)


def find_resync(cols: BufferColumns, start: int, limit: int,
                prev_ts32: Optional[int] = None) -> Optional[int]:
    """Locate the next plausible event header at or after ``start``.

    This is the §3.1 recovery story pushed below the alignment boundary:
    after a garble verdict, judge every word of the tail as a header —
    a nonzero length that fits in the buffer, a believable major/minor
    combination (a CONTROL header must carry a known control minor), a
    timestamp that does not regress (mod 2^32) relative to the accepted
    stream — and require that it *chains*: the header it points at must
    itself be plausible (or end the buffer exactly).  Requiring two
    linked plausible headers keeps the false-acceptance rate on random
    garbage low (§3.1: "it is unlikely that random data will have the
    correct format of a trace event header").  A full-width timestamp
    anchor is exempt from the regression test: it exists precisely so
    the stream can span gaps the 32-bit delta cannot represent (§3.2) —
    a late-attaching writer's first words land seconds after the
    creator's buffer-0 anchor.

    Two passes: the first holds candidates to the accepted timestamp
    state; if nothing qualifies — which happens when the accepted state
    itself was poisoned by a corrupt-but-well-shaped header — a second,
    shape-only pass requires only internal chain monotonicity.  Returns
    the offset of the accepted candidate, or ``None`` when the rest of
    the buffer holds nothing salvageable.

    Every test is an array predicate over the tail, so the cost is a
    fixed number of numpy calls however long the tail is — an all-zero
    tail is turned away after the first.  The word-at-a-time statement
    of the same rules is :func:`repro.check.oracle.find_resync`.
    """
    if start >= limit or not (cols.arr[start:limit] & _LEN_BITS).any():
        return None                        # no word even carries a length
    length = cols.length[start:limit]
    end = length + np.arange(start, limit)
    shaped = (length != 0) & (end <= limit)
    ts = cols.ts32[start:limit]
    minor = cols.minor[start:limit]
    control = cols.major[start:limit] == _CTRL
    ok = shaped & ~(control & ~_KNOWN_CONTROL_MINOR[minor])
    anchor = control & (minor == _ANCHOR) & (length >= 2)
    # The successor is held to the candidate's own timestamp.  ``end`` is
    # clipped only where the candidate is rejected or ends the buffer.
    succ = np.minimum(end, limit - 1) - start
    follows = ((ts[succ] - ts) & _M32) < _HALF32
    chains = ok & ((end == limit) | (ok[succ] & (follows | anchor[succ])))
    if prev_ts32 is not None:
        held = chains & ((((ts - prev_ts32) & _M32) < _HALF32) | anchor)
        if held.any():
            return start + int(held.argmax())
    if chains.any():
        return start + int(chains.argmax())
    return None


@dataclass
class BufferScan:
    """One buffer's parse decisions: accepted event offsets plus garble.

    This is the unit of work decode workers ship back to the parent
    (:mod:`repro.core.parallel`): the offsets and the garble verdicts are
    the *only* outputs of the walk — every other event attribute is a
    pure function of the words, which the parent already holds.  A scan
    is therefore a few flat int sequences, orders of magnitude cheaper
    to move between processes than a list of event objects.

    ``garbles`` and ``resumes`` run in parallel: for each garble verdict
    ``(offset, detail)`` the matching entry of ``resumes`` holds the
    offset where the recovery rescan resumed parsing, or ``None`` when
    the walk stopped there (strict mode, or nothing salvageable).
    """

    cols: BufferColumns
    #: Word offset of each accepted event header: a list from
    #: :func:`scan_buffer`, an int64 array from :func:`scan_buffers`.
    offsets: Union[List[int], np.ndarray]
    garbles: List[Tuple[int, str]] = field(default_factory=list)
    resumes: List[Optional[int]] = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.offsets)


def scan_buffer(words: Union[np.ndarray, Sequence[int]],
                fill_words: int,
                cols: Optional[BufferColumns] = None,
                recover: bool = False) -> BufferScan:
    """The full walk of one buffer, and the statement of the garble rules.

    Semantically identical to the reference walk in
    :mod:`repro.check.oracle` — same validity checks, same garble
    details, same recovery.  With ``recover=False`` parsing stops
    at the first bad header (the next alignment boundary is the next
    buffer); with ``recover=True`` each garble triggers a
    :func:`find_resync` rescan and parsing resumes at the next plausible
    header, salvaging the remainder of the buffer.

    :func:`scan_buffers` walks many buffers at once and comes here only
    for those in which one of these checks would fire.
    """
    if cols is None:
        cols = BufferColumns(words, fill_words)
    limit = cols.limit
    words = memoryview(cols.arr)

    offsets: List[int] = []
    append = offsets.append
    garbles: List[Tuple[int, str]] = []
    resumes: List[Optional[int]] = []

    off = 0
    prev_ts32: Optional[int] = None
    while off < limit:
        word = words[off]
        ts = word >> TIMESTAMP_SHIFT
        length = (word >> LENGTH_SHIFT) & LENGTH_MASK
        end = off + length
        verdict: Optional[str] = None
        if length == 0 or end > limit:
            # Rare path: an extended filler (length field is 0) or garble.
            if word & _SHAPE_BITS == _FILLER_EXT_SHAPE:
                if off + 1 >= limit:
                    verdict = "truncated extended filler"
                else:
                    span = words[off + 1]
                    if span < 2 or off + span > limit:
                        verdict = f"bad extended filler span {span}"
                    else:
                        end = off + span
            else:
                verdict = f"invalid header {word:#018x} (length {length})"
        if (verdict is None and prev_ts32 is not None
                and ((ts - prev_ts32) & _M32) >= _HALF32
                and not _is_anchor_header((word >> MAJOR_SHIFT) & MAJOR_MASK,
                                          word & MINOR_MASK, length)):
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
            resume = find_resync(cols, off + 1, limit, prev_ts32)
            resumes.append(resume)
            if resume is None:
                break
            if (prev_ts32 is not None
                    and (((words[resume] >> TIMESTAMP_SHIFT) - prev_ts32)
                         & _M32) >= _HALF32):
                # Shape-only (relaxed) resync: the accepted timestamp
                # state was itself poisoned; restart the chain here.
                prev_ts32 = None
            off = resume
            continue
        append(off)
        prev_ts32 = ts
        off = end
    return BufferScan(cols, offsets, garbles, resumes)


def scan_buffers(buffers: Sequence[Tuple[Union[np.ndarray, Sequence[int]],
                                         int]],
                 recover: bool = False) -> List[BufferScan]:
    """Walk a run of ``(words, fill_words)`` buffers at once.

    The buffers' words are pooled into one array and every word's step
    to the next header — its length field, or the span word of an
    extended filler — is computed as a column, a zero length becoming a
    step past the end of the pool.  Following that column from each
    buffer's first word costs one ``off += step[off]`` hop per event and
    nothing per word, and a healthy chain lands exactly on its buffer's
    end; the timestamp regression test (anchors exempt) is then one pass
    over the accepted headers.  A buffer whose chain missed its end or
    regressed is handed to :func:`scan_buffer`, which alone issues
    verdicts and recovers; for every other buffer the chain *is* that
    walk's result.

    No event crosses a buffer boundary (§3.2), so which buffers are
    pooled together never changes a result.  Temporaries are a few
    arrays the size of the pooled words.
    """
    cols = [BufferColumns(words, fill) for words, fill in buffers]
    if not cols:
        return []
    pool = np.concatenate([c.arr for c in cols])
    ends = list(accumulate(c.limit for c in cols))
    starts = [end - c.limit for end, c in zip(ends, cols)]

    low = pool & _SHAPE_BITS
    ext = (low == _FILLER_EXT_SHAPE).nonzero()[0]
    low >>= LENGTH_SHIFT
    step = low.view(np.int64)              # each word's length field
    stop = len(pool) + 1                   # carries any chain past its end
    step[step == 0] = stop
    if len(ext):
        # Extended fillers: the span lives in the next word of the buffer.
        room = np.array(ends)[np.searchsorted(ends, ext, side="right")] - ext
        ext, room = ext[room > 1], room[room > 1]
        span = pool[ext + 1]
        fits = (span >= 2) & (span <= room.astype(np.uint64))
        step[ext[fits]] = span[fits]

    hop = memoryview(step)
    chain: List[int] = []
    accept = chain.append
    bounds = [0]                           # events before each buffer
    flagged: Set[int] = set()
    for b, (off, end) in enumerate(zip(starts, ends)):
        while off < end:
            accept(off)
            off += hop[off]
        if off != end:                     # a dead word, or an overrun
            flagged.add(b)
        bounds.append(len(chain))
    at = np.array(chain, dtype=np.int64)
    first = np.array(bounds)               # each buffer's first event

    # Regressions between consecutive accepted headers of one buffer.
    header = pool[at]
    ts = header >> TIMESTAMP_SHIFT
    back = np.zeros(len(at) + 1, dtype=bool)
    back[1:-1] = ((ts[1:] - ts[:-1]) & _M32) >= _HALF32
    back[first] = False
    hits = back.nonzero()[0]
    if len(hits):
        h = header[hits]
        exempt = ((h & _KIND_BITS) == _ANCHOR_KIND) \
            & (((h >> LENGTH_SHIFT) & LENGTH_MASK) >= 2)
        flagged.update((np.searchsorted(first, hits[~exempt],
                                        side="right") - 1).tolist())

    local = at - np.repeat(np.array(starts), first[1:] - first[:-1])
    return [
        scan_buffer(c.arr, c.limit, c, recover) if b in flagged
        else BufferScan(c, local[bounds[b]:bounds[b + 1]])
        for b, c in enumerate(cols)
    ]


def unwrap_times(
    ts32: Union[np.ndarray, Sequence[int]],
    last_full: Optional[int],
    last_ts32: Optional[int],
    anchors: Sequence[Tuple[int, int]],
    rebase_at: Sequence[int],
) -> Optional[np.ndarray]:
    """Full-timestamp reconstruction for a run of one CPU's events.

    Full times are sums of the per-event signed 32-bit deltas around a
    base — an anchor's full value, or the carried ``(last_full,
    last_ts32)`` of the event before the run.  Integer addition is
    associative, so one cumulative sum of the deltas (exact in int64:
    each delta is in [-2^31, 2^31) and a run holds far fewer than 2^31
    events) re-based per segment reproduces the event-by-event
    accumulation bit for bit.  The bases stay Python ints, so
    arbitrarily large anchor values cannot overflow; the result is an
    int64 column unless a time does not fit, and an object column then.

    ``anchors`` lists ``(event index, full value)`` pairs.  The
    reconstruction re-bases at each one, because the 32-bit deltas
    *between* two anchors are not trustworthy — the gap they bridge can
    exceed what 32 bits can represent (a writer attaching seconds after
    the segment was created).  ``rebase_at[k]`` is the index from which
    anchor ``k`` governs: the first anchor of a buffer governs from the
    buffer's first event (events before it chain backward from it) and
    every later one from its own index.  Events before ``rebase_at[0]``
    chain forward from the carried state, which must then exist.

    Returns ``None`` when there is no basis (no anchor and no carried
    state) or no event — the caller keeps times unset.
    """
    n = len(ts32)
    if n == 0:
        return None
    a = np.asarray(ts32, dtype=np.int64)
    delta = np.empty(n, dtype=np.int64)
    if last_full is not None and last_ts32 is not None:
        delta[0] = sdelta32(int(a[0]), last_ts32)
    elif anchors:
        delta[0] = 0
        last_full = None
    else:
        return None
    # Signed 32-bit difference: shift into [0, 2^32), mask, shift back.
    delta[1:] = ((a[1:] - a[:-1] + _HALF32) & _M32) - _HALF32
    cum = np.cumsum(delta)

    at = [i for i, _ in anchors]
    seg_start = list(rebase_at)
    seg_base = [t - c for (_, t), c in zip(anchors, cum[at].tolist())]
    if last_full is not None and (not at or seg_start[0] > 0):
        # The carried state governs up to the first re-base.
        seg_start.insert(0, 0)
        seg_base.insert(0, last_full)
    seg_len = np.diff(seg_start + [n])
    lo, hi = min(int(cum.min()), 0), max(int(cum.max()), 0)
    if -(1 << 63) <= min(seg_base) + lo and max(seg_base) + hi < 1 << 63:
        return np.repeat(np.array(seg_base, dtype=np.int64), seg_len) + cum
    bases = np.repeat(np.array(seg_base, dtype=object), seg_len).tolist()
    return _int_column([b + c for b, c in zip(bases, cum.tolist())])


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
