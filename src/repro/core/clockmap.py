"""One clock map: §4.1's two-anchor interpolation, keyed by stream.

"x86 architectures do not provide such a clock.  Instead, LTT logs the
cheaply available tsc with each event, and only at the beginning and end
is the more expensive get_timeOfDay call made allowing synchronization
between different processors' buffers through interpolation of the tsc
values between the get_timeOfDay values."

A *stream* is anything that stamps events with its own cheap counter:
a CPU's tsc within one machine (§4.1, anchors from
:meth:`repro.core.timestamps.DriftingTscClock.anchors`), or a node's
local clock within a fleet (:mod:`repro.fleet`, anchors from the
launcher's sidecars).  Each stream samples its counter against the
shared wall clock twice — once before its workload, once after —
producing a :class:`ClockAnchors` pair.  :class:`ClockMap` turns the
pairs into per-stream affine maps ``local -> wall`` and re-bases whole
event-time columns vectorized.  The residual cross-stream disagreement
after re-basing is *bounded*, not just hoped-for: see
:meth:`ClockMap.skew_bound` for the derivation the property suite
asserts against.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Dict, Iterable, List, Mapping, Sequence, Union

import numpy as np

#: Above this magnitude int->float64 conversion rounds, so the
#: vectorized re-basing could diverge from the exact scalar map; such
#: columns fall back to the scalar path (same guard as the store's
#: time filter).
_EXACT_FLOAT_BOUND = 1 << 53


@dataclass(frozen=True)
class ClockAnchors:
    """The two ``(local, wall)`` pairs taken for one stream.

    Both spans must be positive: a zero/negative local span has no
    slope, and a zero/negative wall span would silently collapse or
    reverse time — both are anchor-taking bugs, so they fail loudly.
    """

    local_start: int
    wall_start: int
    local_end: int
    wall_end: int

    def __post_init__(self) -> None:
        if self.local_end <= self.local_start:
            raise ValueError("end anchor must come after start anchor")
        if self.wall_end <= self.wall_start:
            raise ValueError("wall anchors must span a positive interval")

    @property
    def rate(self) -> float:
        """Wall units per local tick."""
        return ((self.wall_end - self.wall_start)
                / (self.local_end - self.local_start))

    def to_json(self) -> Dict[str, int]:
        return {
            "local_start": self.local_start,
            "wall_start": self.wall_start,
            "local_end": self.local_end,
            "wall_end": self.wall_end,
        }

    @classmethod
    def from_json(cls, doc: Mapping[str, Any]) -> "ClockAnchors":
        return cls(
            local_start=int(doc["local_start"]),
            wall_start=int(doc["wall_start"]),
            local_end=int(doc["local_end"]),
            wall_end=int(doc["wall_end"]),
        )


class ClockMap:
    """Linear per-stream maps from local readings to the wall clock.

    Every stream listed gets a map: the anchored one where ``anchors``
    holds its pair, the identity otherwise — an unanchored stream's
    timestamps are taken to already be on the wall axis (the
    single-node degenerate case, and the honest default for traces that
    carry no sidecar).
    """

    def __init__(
        self,
        streams: Iterable[int],
        anchors: Mapping[int, ClockAnchors],
    ) -> None:
        self._maps = {int(s): (0, 0, 1.0) for s in streams}
        if not self._maps:
            raise ValueError("need at least one stream")
        self.anchors: Dict[int, ClockAnchors] = {}
        for stream, a in anchors.items():
            if stream not in self._maps:
                raise ValueError(f"anchors for unknown stream {stream}")
            self.anchors[stream] = a
            self._maps[stream] = (a.local_start, a.wall_start, a.rate)

    @property
    def streams(self) -> List[int]:
        return sorted(self._maps)

    def to_wall(self, stream: int, local: int) -> int:
        """Map one local reading onto the wall clock (exact scalar)."""
        local0, wall0, rate = self._maps[stream]
        if rate == 1.0:
            # Exact integer path: identity maps (and perfectly-paced
            # clocks) must not round-trip through float64.
            return wall0 + (local - local0)
        return wall0 + round((local - local0) * rate)

    def rebase(
        self,
        stream: int,
        time: np.ndarray,
        timed: np.ndarray,
    ) -> np.ndarray:
        """Re-base a whole ``time`` column onto the wall clock.

        Only rows with a reconstructed timestamp (``timed``) are
        mapped; untimed rows keep their 0 placeholder, preserving the
        ``time == 0 where not timed`` batch invariant.  The vectorized
        float64 path is bit-identical to the scalar :meth:`to_wall`
        while magnitudes stay below 2**53 (conversion is exact, and
        ``np.rint`` rounds half-to-even like Python's ``round``);
        larger or object-dtype columns take the exact scalar loop.
        """
        local0, wall0, rate = self._maps[stream]
        if rate == 1.0 and local0 == wall0:
            return time
        if time.dtype != object:
            rel = time.astype(np.int64) - np.int64(local0)
            lim = int(np.abs(rel).max(initial=0))
            est = abs(wall0) + lim * max(rate, 1.0) + 1
            if lim < _EXACT_FLOAT_BOUND and est < float(1 << 62):
                mapped = (np.rint(rel.astype(np.float64) * rate)
                          .astype(np.int64) + np.int64(wall0))
                return np.where(timed, mapped, time)
        tl = time.tolist()
        fl = timed.tolist()
        vals = [self.to_wall(stream, t) if f else t
                for t, f in zip(tl, fl)]
        try:
            return np.array(vals, dtype=np.int64)
        except OverflowError:
            return np.array(vals, dtype=object)

    def skew_bound(
        self,
        jitter: Union[int, Mapping[int, int]] = 0,
    ) -> int:
        """Worst-case cross-stream disagreement after re-basing, in wall
        units, for events inside the anchor wall span.

        Model: stream ``s``'s integer clock reads ``floor(a_s + b_s *
        t) + e`` at true time ``t``, with ``|e| <= jitter_s``, and its
        anchors are two such readings.  Writing ``E = jitter_s + 1``
        (jitter plus integer truncation) and ``r`` for the anchors'
        rate, the recovered wall time of an event at ``t`` within the
        anchor span deviates from ``t`` by at most

        * ``2 * E * r`` from the rate error the anchor-reading errors
          induce (``|b*r - 1| <= 2E / local_span`` exactly, times
          ``|t - wall_start| <= wall_span = r * local_span``),
        * ``2 * E * r`` from the event's own reading error relative to
          the start anchor's, and
        * ``0.5`` from the final round —

        so ``dev_s = 4 * (jitter_s + 1) * rate_s + 0.5``, and the
        pairwise skew between any two streams is at most the sum of the
        two largest per-stream deviations.  The property suite generates
        clocks matching exactly this model and asserts measured skew
        never exceeds this bound.  Identity-mapped streams (no anchors)
        contribute zero deviation: their times are passed through
        unchanged.
        """
        devs: List[float] = []
        for stream, (_l0, _w0, rate) in self._maps.items():
            if stream not in self.anchors:
                devs.append(0.0)
                continue
            j = (jitter.get(stream, 0) if isinstance(jitter, Mapping)
                 else int(jitter))
            devs.append(4.0 * (j + 1) * rate + 0.5)
        if len(devs) < 2:
            return 0
        devs.sort()
        return int(math.ceil(devs[-1] + devs[-2]))

    def to_json(self) -> Dict[str, Any]:
        """Anchor table for manifests/sidecars (identity streams omitted)."""
        return {str(s): a.to_json() for s, a in sorted(self.anchors.items())}


def measured_skew(
    cmap: ClockMap,
    readings: Mapping[int, Sequence[int]],
) -> int:
    """Worst observed cross-stream disagreement, measured.

    ``readings[s][i]`` is stream ``s``'s local clock read at the *same
    true instant* as every other stream's reading ``i``; each instant's
    readings are mapped onto the wall clock and their spread taken.
    With exact anchors the residual is only rounding plus the
    nonlinearity of real clocks.  Returns 0 for fewer than two streams
    (a stream cannot disagree with itself).
    """
    streams = sorted(readings)
    if len(streams) < 2:
        return 0
    counts = {len(readings[s]) for s in streams}
    if len(counts) != 1:
        raise ValueError("readings must be index-aligned across streams")
    worst = 0
    for i in range(counts.pop()):
        recovered = [cmap.to_wall(s, readings[s][i]) for s in streams]
        worst = max(worst, max(recovered) - min(recovered))
    return worst
