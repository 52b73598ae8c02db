"""The reference ring walk and decoder: word-at-a-time code the checker
trusts.

The production decoder (:func:`repro.core.columnar.decode_records_columnar`)
unpacks a buffer's header fields in one batch of numpy operations and
reconstructs timestamps with a cumulative sum.  This module keeps the
original seed implementation — Python integers, one word at a time, one
event at a time — as the independent ground truth that decoder is
compared against: the model checker cross-checks the two on every
explored schedule (the ``scalar-batch-divergence`` invariant), and the
test suite fuzzes them against each other on corrupted streams.

It is reference code, deliberately slow and deliberately separate: the
only things it shares with the production walk are ``sdelta32`` and the
anchor-header predicate.  :func:`find_resync` here is the word-at-a-time
statement of the resync rules that the array-predicate
:func:`repro.core.stream.find_resync` is held to.

:func:`reference_ring` is the same kind of ground truth one step
earlier: it lists a lane's buffers straight from the index and the
committed counts, without the production reader
(:func:`repro.core.buffers.read_lane`), so the collector's drained
output can be judged against it.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Tuple

import numpy as np

from repro.core.buffers import BufferRecord, LaneAt, decode_commit_word
from repro.core.constants import EXTENDED_FILLER_LENGTH
from repro.core.header import unpack_header
from repro.core.majors import ControlMinor, Major
from repro.core.registry import EventRegistry
from repro.core.stream import (
    Anomaly,
    Trace,
    TraceEvent,
    _is_anchor_header,
    sdelta32,
)

_U32 = 1 << 32
_HALF32 = 1 << 31

#: Minor IDs a CONTROL-class header may legitimately carry; anything else
#: in the CONTROL major is junk and disqualifies a resync candidate.
_KNOWN_CONTROL_MINORS = frozenset(int(m) for m in ControlMinor)


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


def find_resync(fields, start: int, limit: int,
                prev_ts32: Optional[int] = None) -> Optional[int]:
    """Locate the next plausible event header at or after ``start``.

    Rescan forward word by word for a header whose length/major fields
    are valid, whose timestamp continues the accepted stream
    monotonically, and which *chains* — the header it points at must
    itself be plausible (or end the buffer exactly).

    Two passes: the first holds candidates to the accepted timestamp
    state; if nothing qualifies, a second, shape-only pass requires only
    internal chain monotonicity.  Returns the offset of the accepted
    candidate, or ``None`` when the rest of the buffer holds nothing
    salvageable.
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


def reference_ring(words, at: LaneAt, buffer_words: int, num_buffers: int,
                   cpu: int) -> List[BufferRecord]:
    """Every buffer of a wrap-free lane that holds reserved words.

    Deliberately not :func:`~repro.core.buffers.read_lane`: no occupant
    words, no stable copy, just sequences ``0..index // buffer_words``
    at ``seq % num_buffers``, the last one partial.
    """
    index = words[at.index]
    cur_seq = index // buffer_words
    out: List[BufferRecord] = []
    for seq in range(cur_seq + 1):
        fill = (buffer_words if seq < cur_seq
                else index & (buffer_words - 1))
        if fill == 0:
            continue
        slot = seq % num_buffers
        start = at.trace + slot * buffer_words
        out.append(BufferRecord(
            cpu=cpu,
            seq=seq,
            words=np.array(words[start:start + buffer_words],
                           dtype=np.uint64),
            committed=decode_commit_word(seq, words[at.committed + slot]),
            fill_words=fill,
            partial=(seq == cur_seq),
        ))
    return out


def reference_decode(
    records: Iterable[BufferRecord],
    registry: Optional[EventRegistry] = None,
    include_fillers: bool = False,
    check_committed: bool = True,
    strict: bool = False,
) -> Trace:
    """Decode buffer records (any CPUs, any order) the slow, obvious way.

    Same contract as the production decoder: per-CPU streams in
    sequence order, garbles resynchronized past unless ``strict``, and
    per-buffer anomalies reported in the order garbles/recoveries,
    committed mismatch, missing anchor.
    """
    by_cpu: Dict[int, List[BufferRecord]] = {}
    for rec in records:
        by_cpu.setdefault(rec.cpu, []).append(rec)
    trace = Trace()
    for cpu, recs in sorted(by_cpu.items()):
        recs.sort(key=lambda r: r.seq)
        events: List[TraceEvent] = []
        last_full: Optional[int] = None
        last_ts32: Optional[int] = None
        for rec in recs:
            if not 0 <= rec.seq < 1 << 63:
                # A validity rule of the format, like the header checks
                # (and the one addition to the seed walk): only a damaged
                # frame/dump header carries such a sequence number, the
                # buffer cannot be ordered, so it is distrusted whole.
                trace.anomalies.append(Anomaly(
                    rec.cpu, rec.seq, 0, "garbled",
                    f"implausible buffer sequence number {rec.seq}; "
                    f"buffer skipped",
                ))
                continue
            evs = _walk_buffer(rec, registry, strict, trace.anomalies)
            if (check_committed and not rec.partial
                    and rec.committed != rec.fill_words):
                # The per-buffer ``traceCommit`` consistency check (§3.1).
                trace.anomalies.append(Anomaly(
                    rec.cpu, rec.seq, 0, "committed-mismatch",
                    f"committed {rec.committed} words, buffer holds "
                    f"{rec.fill_words}",
                ))
            last_full, last_ts32 = _accumulate_times(
                evs, rec, trace.anomalies, last_full, last_ts32)
            if not include_fillers:
                evs = [e for e in evs if not e.is_filler]
            events.extend(evs)
        trace.events_by_cpu[cpu] = events
    return trace


def _walk_buffer(
    rec: BufferRecord,
    registry: Optional[EventRegistry],
    strict: bool,
    anomalies: List[Anomaly],
) -> List[TraceEvent]:
    """Walk one buffer, validating headers.

    In strict mode a garble verdict stops the walk — recovery is
    exactly what the paper prescribes: skip to the next alignment
    boundary, i.e. abandon the rest of this buffer.  Otherwise the walk
    rescans forward for the next plausible header and salvages the
    remainder.
    """
    words = rec.words
    limit = min(rec.fill_words, len(words))
    events: List[TraceEvent] = []

    def fields(o: int) -> Tuple[int, int, int, int]:
        h = unpack_header(int(words[o]))
        return h.timestamp, h.length, h.major, h.minor

    off = 0
    prev_ts32: Optional[int] = None
    while off < limit:
        word = int(words[off])
        hdr = unpack_header(word)
        length = hdr.length
        span = length
        verdict: Optional[str] = None
        if (
            length == EXTENDED_FILLER_LENGTH
            and hdr.major == Major.CONTROL
            and hdr.minor == ControlMinor.FILLER_EXT
        ):
            if off + 1 >= limit:
                verdict = "truncated extended filler"
            else:
                span = int(words[off + 1])
                length = 2  # header + span word are the real payload
                if span < 2 or off + span > limit:
                    verdict = f"bad extended filler span {span}"
        elif length == 0 or off + length > limit:
            verdict = f"invalid header {word:#018x} (length {length})"
        if verdict is None and prev_ts32 is not None \
                and sdelta32(hdr.timestamp, prev_ts32) < 0 \
                and not _is_anchor_header(hdr.major, hdr.minor, hdr.length):
            # A large backwards jump cannot come from a healthy stream:
            # per-CPU timestamps are monotonic by construction (§3.1).
            # Anchors are exempt — they carry the full value and exist
            # to bridge exactly such gaps (§3.2).
            verdict = f"timestamp regression {prev_ts32}->{hdr.timestamp}"
        if verdict is not None:
            anomalies.append(
                Anomaly(rec.cpu, rec.seq, off, "garbled", verdict))
            if strict:
                break
            resume = find_resync(fields, off + 1, limit, prev_ts32)
            if resume is None:
                break
            anomalies.append(Anomaly(
                rec.cpu, rec.seq, off, "recovered-region",
                f"skipped {resume - off} words; resynchronized at "
                f"offset {resume}",
            ))
            if prev_ts32 is not None \
                    and sdelta32(fields(resume)[0], prev_ts32) < 0:
                # Shape-only (relaxed) resync: restart the chain.
                prev_ts32 = None
            off = resume
            continue
        if hdr.major == Major.CONTROL and hdr.minor == ControlMinor.FILLER:
            # A plain filler is just a header spanning the remainder;
            # the words underneath it are not event data.
            data = []
        else:
            data = [int(w) for w in words[off + 1 : off + length]]
        events.append(TraceEvent(
            cpu=rec.cpu,
            seq=rec.seq,
            offset=off,
            ts32=hdr.timestamp,
            major=hdr.major,
            minor=hdr.minor,
            data=data,
            spec=(registry.lookup(hdr.major, hdr.minor)
                  if registry is not None else None),
        ))
        prev_ts32 = hdr.timestamp
        off += span
    return events


def _accumulate_times(
    events: List[TraceEvent],
    rec: BufferRecord,
    anomalies: List[Anomaly],
    last_full: Optional[int],
    last_ts32: Optional[int],
) -> Tuple[Optional[int], Optional[int]]:
    """Assign full 64-bit times event by event from the buffer's anchor.

    Falls back to unwrapping from the previous buffer's last event when
    a buffer has no anchor (possible after garbling).  Returns the
    updated ``(last_full, last_ts32)`` state.
    """
    if not events:
        return (last_full, last_ts32)

    def is_anchor(e: TraceEvent) -> bool:
        return (e.major == Major.CONTROL
                and e.minor == ControlMinor.TIMESTAMP_ANCHOR
                and bool(e.data))

    anchor_i = next(
        (i for i, e in enumerate(events) if is_anchor(e)), None)
    # Unwrapping is sequential: each consecutive 32-bit delta is small
    # (the walk rejects regressions, and a healthy stream never goes
    # 2**31 ticks between adjacent events *except* across a later
    # anchor, which restates the full value), so full times follow by
    # accumulation in both directions from the anchor, re-basing
    # whenever another anchor appears.
    if anchor_i is not None:
        anchor = events[anchor_i]
        anchor.time = anchor.data[0]
        for i in range(anchor_i + 1, len(events)):
            if is_anchor(events[i]):
                events[i].time = events[i].data[0]
                continue
            events[i].time = events[i - 1].time + sdelta32(
                events[i].ts32, events[i - 1].ts32
            )
        for i in range(anchor_i - 1, -1, -1):
            events[i].time = events[i + 1].time - sdelta32(
                events[i + 1].ts32, events[i].ts32
            )
    elif last_full is not None and last_ts32 is not None:
        anomalies.append(
            Anomaly(rec.cpu, rec.seq, 0, "missing-anchor",
                    "no timestamp anchor; times unwrapped from previous buffer")
        )
        prev_full, prev32 = last_full, last_ts32
        for e in events:
            e.time = prev_full + sdelta32(e.ts32, prev32)
            prev_full, prev32 = e.time, e.ts32
    else:
        return (last_full, last_ts32)
    return (events[-1].time, events[-1].ts32)
