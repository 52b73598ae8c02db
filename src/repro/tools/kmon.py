"""kmon — the graphical trace visualizer (Figure 4), rendered offline.

"The timeline in the top middle provides a bird's eye view of the events
occurring in the system ... The user can zoom in or out ... specific
events to be marked and counted ... when the mouse is clicked in the
timeline area, [it] will produce a listing of every event that occurred
around the time period the mouse was clicked in."

This implementation renders to text (per-CPU lanes of busy/idle derived
from the scheduler's idle events, an event-density band, and markers for
selected event names) and to standalone SVG.  ``zoom`` narrows the
window; ``events_near`` is the mouse-click listing, delegating to the
Figure 5 tool.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.core.columnar import as_batch
from repro.core.majors import Major, ProcMinor
from repro.core.stream import Trace, TraceEvent
from repro.store.query import Predicate, select
from repro.tools.context import _columnar_only
from repro.tools.listing import CYCLES_PER_SECOND, event_listing, format_event

_DENSITY = " .:-=+*#%@"


@dataclass
class _Lane:
    cpu: int
    busy: List[Tuple[int, int]]  # busy intervals in cycles
    event_times: List[int]


class Timeline:
    """The Figure 4 timeline over a decoded trace.

    Lanes, intervals, and marker counts are derived from the trace's
    event columns with mask selection.  ``columnar`` selects nothing;
    ``False`` raises.
    """

    def __init__(self, trace: Trace,
                 window: Optional[Tuple[int, int]] = None,
                 columnar: bool = True) -> None:
        _columnar_only("Timeline", columnar)
        self.trace = trace
        self.marks: List[str] = []
        self.process_pids: List[int] = []
        self.process_names: Dict[int, str] = {}
        self._lanes: List[_Lane] = []
        self._build_lanes()
        if window is not None:
            self.t0, self.t1 = window
        if self.t1 <= self.t0:
            self.t1 = self.t0 + 1

    # ------------------------------------------------------------------
    def _build_lanes(self) -> None:
        """Build lanes and process intervals from event columns."""
        b = as_batch(self.trace)
        order = b.order_by_stream()
        n = len(order)
        timed = b.timed
        if not bool(timed.any()):
            raise ValueError("trace has no timestamped events")
        t_all = b.time[timed]
        if t_all.dtype == object:
            tl = t_all.tolist()
            self.t0, self.t1 = min(tl), max(tl)
        else:
            self.t0, self.t1 = int(t_all.min()), int(t_all.max())

        idle_end = select(b, Predicate(majors=(int(Major.PROC),),
                                       minors=(int(ProcMinor.IDLE_END),),
                                       timed_only=True))
        idle_start = select(b, Predicate(majors=(int(Major.PROC),),
                                         minors=(int(ProcMinor.IDLE_START),),
                                         timed_only=True))
        sw = select(b, Predicate(majors=(int(Major.PROC),),
                                 minors=(int(ProcMinor.CONTEXT_SWITCH),),
                                 min_data=2, timed_only=True))

        # thread -> pid mapping, stream order, last write wins.
        thread_pid: Dict[int, int] = {}
        tc = select(b, Predicate(majors=(int(Major.PROC),),
                                 minors=(int(ProcMinor.THREAD_CREATE),),
                                 min_data=2))
        tc_idx = order[tc[order]]
        if len(tc_idx):
            for t, p in zip(b.data_column(0, tc_idx).tolist(),
                            b.data_column(1, tc_idx).tolist()):
                thread_pid[t] = p

        intervals: Dict[int, List[Tuple[int, int]]] = {}
        cpu_sorted = b.cpu[order]
        bounds = np.flatnonzero(
            np.concatenate(([True], cpu_sorted[1:] != cpu_sorted[:-1]))
        ).tolist() + [n]
        seg_by_cpu = {
            int(cpu_sorted[s]): order[s:e_]         # decode order per CPU
            for s, e_ in zip(bounds[:-1], bounds[1:])
        }
        # Event-less CPUs still get an (empty) lane.
        from repro.tools.schedstats import _trace_cpus

        universe = sorted(set(_trace_cpus(self.trace)) | set(seg_by_cpu))
        empty = np.zeros(0, dtype=np.int64)
        for cpu in universe:
            seg = seg_by_cpu.get(cpu, empty)
            tseg = seg[timed[seg]]
            times = b.time[tseg].tolist()
            self._lanes.append(
                _Lane(cpu, self._busy_intervals(tseg, times, idle_start,
                                                idle_end),
                      times)
            )
            # Per-process run intervals from context switches.
            sw_seg = seg[sw[seg]]
            st = b.time[sw_seg].tolist()
            thr = b.data_column(1, sw_seg).tolist()
            current_pid: Optional[int] = None
            since: Optional[int] = None
            for i in range(len(sw_seg)):
                if current_pid is not None and since is not None:
                    intervals.setdefault(current_pid, []).append(
                        (since, st[i])
                    )
                current_pid = thread_pid.get(thr[i])
                since = st[i]
            if current_pid is not None and since is not None and len(seg):
                last_i = seg[-1]
                if b.timed[last_i]:
                    last = int(b.time[last_i])
                    if last > since:
                        intervals.setdefault(current_pid, []).append(
                            (since, last)
                        )
        self._pid_intervals = intervals

    @staticmethod
    def _busy_intervals(
        tseg: np.ndarray,
        times: List[int],
        idle_start: np.ndarray,
        idle_end: np.ndarray,
    ) -> List[Tuple[int, int]]:
        """Reconstruct busy periods from IDLE_START/IDLE_END events.

        A CPU starts idle; the first IDLE_END begins its first busy
        interval.  A CPU with activity but no idle events is busy from
        its first to its last event.  ``tseg`` is the CPU's timestamped
        rows in decode order, ``times`` their timestamps.
        """
        intervals: List[Tuple[int, int]] = []
        if len(tseg) == 0:
            return intervals
        ie = idle_end[tseg]
        is_ = idle_start[tseg]
        bnd = np.flatnonzero(ie | is_)
        busy_from: Optional[int] = None
        saw_idle_event = len(bnd) > 0
        ends = ie[bnd].tolist()
        for j, k in enumerate(bnd.tolist()):
            if ends[j]:
                if busy_from is None:
                    busy_from = times[k]
            else:
                if busy_from is not None:
                    intervals.append((busy_from, times[k]))
                    busy_from = None
        if busy_from is not None:
            intervals.append((busy_from, times[-1]))
        if not saw_idle_event:
            intervals.append((times[0], times[-1]))
        return intervals

    # ------------------------------------------------------------------
    # Interaction
    # ------------------------------------------------------------------
    def zoom(self, start_seconds: float, end_seconds: float) -> "Timeline":
        """A new Timeline restricted to [start, end] (in seconds)."""
        if end_seconds <= start_seconds:
            raise ValueError("zoom window must have positive width")
        tl = Timeline(
            self.trace,
            window=(
                int(start_seconds * CYCLES_PER_SECOND),
                int(end_seconds * CYCLES_PER_SECOND),
            ),
        )
        tl.marks = list(self.marks)
        tl.process_pids = list(self.process_pids)
        tl.process_names = dict(self.process_names)
        return tl

    def mark(self, *event_names: str) -> "Timeline":
        """Select events to display and count (Figure 4's marked events)."""
        self.marks.extend(event_names)
        return self

    def show_processes(self, *pids: int,
                       names: Optional[Dict[int, str]] = None) -> "Timeline":
        """Add per-process activity lanes (Figure 4's process rows).

        With no pids given, the busiest processes (by run time inside
        the window) are selected automatically.
        """
        if names:
            self.process_names.update(names)
        if pids:
            self.process_pids.extend(pids)
            return self
        busy = []
        for pid, ivals in self._pid_intervals.items():
            run = sum(
                min(e, self.t1) - max(b, self.t0)
                for b, e in ivals if b < self.t1 and e > self.t0
            )
            if run > 0:
                busy.append((run, pid))
        busy.sort(reverse=True)
        self.process_pids.extend(pid for _, pid in busy[:6])
        return self

    def marked_counts(self) -> Dict[str, int]:
        counts = {name: 0 for name in self.marks}
        for name in counts:
            counts[name] = sum(
                1 for t in self._marker_times(name)
                if self.t0 <= t <= self.t1
            )
        return counts

    def _marker_times(self, name: str) -> List[int]:
        """All timestamps of events named ``name``, ascending."""
        b = as_batch(self.trace)
        sel = b.mask_names([name]) & b.timed
        return sorted(b.time[sel].tolist())

    def events_near(self, at_seconds: float, window_seconds: float = 1e-4,
                    limit: int = 30) -> List[TraceEvent]:
        """The mouse-click listing: every event around a time point."""
        return event_listing(
            self.trace,
            start=at_seconds - window_seconds,
            end=at_seconds + window_seconds,
            limit=limit,
        )

    # ------------------------------------------------------------------
    # Rendering
    # ------------------------------------------------------------------
    def _columns(self, width: int) -> List[Tuple[int, int]]:
        span = self.t1 - self.t0
        edges = [self.t0 + span * i // width for i in range(width + 1)]
        return list(zip(edges[:-1], edges[1:]))

    def render(self, width: int = 96) -> str:
        """Bird's-eye text view: density band + one lane per CPU."""
        cols = self._columns(width)
        lines: List[str] = []
        header = (
            f"kmon timeline  {self.t0 / CYCLES_PER_SECOND:.6f}s .. "
            f"{self.t1 / CYCLES_PER_SECOND:.6f}s "
            f"({(self.t1 - self.t0) / CYCLES_PER_SECOND * 1e3:.3f} ms)"
        )
        lines.append(header)

        # Event-density band over all CPUs.
        merged = sorted(
            t for lane in self._lanes for t in lane.event_times
        )
        dens = []
        peak = 1
        counts = []
        for lo, hi in cols:
            n = bisect_right(merged, hi) - bisect_left(merged, lo)
            counts.append(n)
            peak = max(peak, n)
        for n in counts:
            dens.append(_DENSITY[min(len(_DENSITY) - 1, n * (len(_DENSITY) - 1) // peak)])
        lines.append("events " + "".join(dens))

        # Per-CPU busy/idle lanes ('#' busy, '.' idle).
        for lane in self._lanes:
            row = []
            for lo, hi in cols:
                busy = any(b < hi and e > lo for b, e in lane.busy)
                row.append("#" if busy else ".")
            lines.append(f"cpu{lane.cpu:<3} " + "".join(row))

        # Per-process activity lanes ('=' running somewhere).
        for pid in self.process_pids:
            ivals = self._pid_intervals.get(pid, [])
            row = []
            for lo, hi in cols:
                running = any(b < hi and e > lo for b, e in ivals)
                row.append("=" if running else " ")
            label = self.process_names.get(pid, f"pid{pid}")
            lines.append(f"{label[:6]:<6} " + "".join(row))

        # Marker rows for each marked event name.
        for name in self.marks:
            times = self._marker_times(name)
            row = []
            for lo, hi in cols:
                n = bisect_right(times, hi) - bisect_left(times, lo)
                row.append("|" if n else " ")
            lines.append(f"{name[:18]:<18} " + "".join(row[: width - 11]))
        if self.marks:
            for name, count in self.marked_counts().items():
                lines.append(f"  marked {name}: {count} occurrences")
        return "\n".join(lines)

    def render_svg(self, width: int = 900, lane_height: int = 22) -> str:
        """Standalone SVG: busy intervals as bars, marks as ticks."""
        pad = 60
        span = self.t1 - self.t0
        n_rows = len(self._lanes) + len(self.marks) + len(self.process_pids)
        height = pad + n_rows * lane_height + 20

        def x(t: int) -> float:
            return pad + (t - self.t0) / span * (width - pad - 10)

        parts = [
            f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" '
            f'height="{height}" font-family="monospace" font-size="11">',
            f'<text x="8" y="16">kmon {self.t0 / CYCLES_PER_SECOND:.6f}s .. '
            f'{self.t1 / CYCLES_PER_SECOND:.6f}s</text>',
        ]
        y = 30
        for lane in self._lanes:
            parts.append(f'<text x="8" y="{y + lane_height - 8}">cpu{lane.cpu}</text>')
            parts.append(
                f'<rect x="{pad}" y="{y}" width="{width - pad - 10}" '
                f'height="{lane_height - 6}" fill="#eee"/>'
            )
            for b, e in lane.busy:
                b2, e2 = max(b, self.t0), min(e, self.t1)
                if e2 <= b2:
                    continue
                parts.append(
                    f'<rect x="{x(b2):.1f}" y="{y}" '
                    f'width="{max(0.5, x(e2) - x(b2)):.1f}" '
                    f'height="{lane_height - 6}" fill="#4a78c8"/>'
                )
            y += lane_height
        for pid in self.process_pids:
            label = self.process_names.get(pid, f"pid{pid}")[:12]
            parts.append(
                f'<text x="8" y="{y + lane_height - 8}">{label}</text>'
            )
            for b, e in self._pid_intervals.get(pid, ()):
                b2, e2 = max(b, self.t0), min(e, self.t1)
                if e2 <= b2:
                    continue
                parts.append(
                    f'<rect x="{x(b2):.1f}" y="{y}" '
                    f'width="{max(0.5, x(e2) - x(b2)):.1f}" '
                    f'height="{lane_height - 6}" fill="#58a55c"/>'
                )
            y += lane_height
        for name in self.marks:
            parts.append(f'<text x="8" y="{y + lane_height - 8}">{name[:16]}</text>')
            for t in self._marker_times(name):
                if self.t0 <= t <= self.t1:
                    parts.append(
                        f'<line x1="{x(t):.1f}" y1="{y}" '
                        f'x2="{x(t):.1f}" y2="{y + lane_height - 6}" '
                        f'stroke="#c0392b" stroke-width="1.5"/>'
                    )
            y += lane_height
        parts.append("</svg>")
        return "\n".join(parts)

    def click_listing(self, at_seconds: float, window_seconds: float = 1e-4) -> str:
        """Figure 5-style text for a click at ``at_seconds``."""
        events = self.events_near(at_seconds, window_seconds)
        return "\n".join(format_event(e) for e in events)


def report(trace, sym, opts) -> str:
    """The ``kmon`` report: the timeline, ``opts.width`` columns wide.

    The one trace -> text entry, whatever the trace came from (a file,
    a store, a live window, a fleet node).  A trace with no timestamped
    events — the normal transient state of a live window — renders a
    placeholder instead of raising.
    """
    try:
        tl = Timeline(trace)
    except ValueError:
        return "kmon: no timestamped events in the window yet"
    return tl.render(width=opts.width)


def fleet_rollup(view, sym, opts) -> str:
    """The fleet-wide timeline under a merged view's per-node sections.

    Every (node, cpu) stream gets its own lane on the common fleet
    clock, with a legend decoding the lane ids.
    """
    from repro.fleet.merge import lane_legend_line

    return (lane_legend_line(view) + "\n"
            + report(view.rollup_trace(), sym, opts))
