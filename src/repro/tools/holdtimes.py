"""Lock hold-time analysis — the §2 unified-facility anecdote, as a tool.

"In a particular performance debugging session, we were observing long
lock hold times from our lock contention analysis ... Because we had
integrated scheduling events (in some systems these would be different
mechanisms), we were able to see that there were context switches
between the lock acquire and release events allowing us to understand
what was actually occurring to cause the unexpected long hold times."

Given a trace with lock events on all paths
(``KernelConfig.trace_all_lock_events=True`` — the detail level one
enables while chasing such a problem), this tool pairs each acquisition
with its release, measures the hold, and — the anecdote's punch line —
checks the *scheduling events in the same stream* to see whether the
holder was context-switched out mid-hold.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.core.majors import LockMinor, Major, ProcMinor
from repro.core.stream import Trace
from repro.tools.context import ContextTracker

CYCLES_PER_US = 1_000


@dataclass
class HoldRecord:
    """One acquire→release interval of one lock."""

    lock_id: int
    holder: int               # thread address
    holder_pid: Optional[int]
    start: int
    end: int
    #: times the holder was switched out while holding the lock
    preemptions: int = 0

    @property
    def duration(self) -> int:
        return self.end - self.start

    @property
    def preempted(self) -> bool:
        return self.preemptions > 0


@dataclass
class HoldReport:
    holds: List[HoldRecord] = field(default_factory=list)
    #: acquisitions with no matching release by trace end
    unreleased: int = 0

    def longest(self, n: int = 10) -> List[HoldRecord]:
        return sorted(self.holds, key=lambda h: -h.duration)[:n]

    def per_lock(self) -> Dict[int, Tuple[int, int, int, int]]:
        """lock -> (count, total, max, preempted-hold count)."""
        out: Dict[int, Tuple[int, int, int, int]] = {}
        for h in self.holds:
            count, total, mx, pre = out.get(h.lock_id, (0, 0, 0, 0))
            out[h.lock_id] = (
                count + 1, total + h.duration, max(mx, h.duration),
                pre + (1 if h.preempted else 0),
            )
        return out


def hold_times(trace: Trace) -> HoldReport:
    """Pair lock acquisitions with releases; annotate with preemption.

    Acquisition events are ``ACQUIRE`` (uncontended) and ``CONTEND_END``
    (after contention); each pairs with the next ``RELEASE`` of the same
    lock.  The holder is the thread in context at acquisition; the
    preemption check scans the holder's CPU stream for context switches
    *away from* the holder inside the hold window.
    """
    ctx = ContextTracker(trace)
    report = HoldReport()
    open_holds: Dict[int, HoldRecord] = {}  # lock_id -> in-progress hold

    # Collect context-switch-out times per thread for the window scan.
    switched_out: Dict[int, List[int]] = {}
    for events in trace.events_by_cpu.values():
        for e in events:
            if (e.major == Major.PROC and e.minor == ProcMinor.CONTEXT_SWITCH
                    and len(e.data) >= 2 and e.time is not None):
                switched_out.setdefault(e.data[0], []).append(e.time)
    for times in switched_out.values():
        times.sort()

    for e in trace.all_events():
        if e.major != Major.LOCK or not e.data or e.time is None:
            continue
        lock_id = e.data[0]
        if e.minor in (LockMinor.ACQUIRE, LockMinor.CONTEND_END):
            open_holds[lock_id] = HoldRecord(
                lock_id=lock_id,
                holder=ctx.thread_of(e),
                holder_pid=ctx.pid_of(e),
                start=e.time,
                end=e.time,
            )
        elif e.minor == LockMinor.RELEASE:
            hold = open_holds.pop(lock_id, None)
            if hold is None:
                continue
            hold.end = e.time
            outs = switched_out.get(hold.holder, ())
            # Context switches away from the holder inside the window —
            # the §2 "what actually occurred" signal.
            import bisect

            lo = bisect.bisect_left(outs, hold.start)
            hi = bisect.bisect_right(outs, hold.end)
            hold.preemptions = hi - lo
            report.holds.append(hold)
    report.unreleased = len(open_holds)
    return report


def format_hold_report(
    report: HoldReport,
    lock_names: Optional[Dict[int, str]] = None,
    top: int = 10,
) -> str:
    """The longest holds, each annotated with its explanation."""
    lines = [
        f"{len(report.holds)} lock holds analyzed "
        f"({report.unreleased} unreleased at trace end)",
        f"{'hold (us)':>10} {'lock':<26} {'pid':>5}  explanation",
    ]
    for h in report.longest(top):
        name = (lock_names or {}).get(h.lock_id, f"{h.lock_id:#x}")
        pid = h.holder_pid if h.holder_pid is not None else "?"
        if h.preempted:
            why = (f"holder context-switched out {h.preemptions}x "
                   "mid-hold (§2's long-hold-time cause)")
        else:
            why = "ran uninterrupted"
        lines.append(
            f"{h.duration / CYCLES_PER_US:>10.2f} {name:<26} {pid:>5}  {why}"
        )
    return "\n".join(lines)


def report(trace, sym, opts) -> str:
    """The ``holds`` report: the ``opts.top`` longest holds, explained."""
    return format_hold_report(hold_times(trace), sym.lock_names,
                              top=opts.top)
