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

from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.core.columnar import as_batch
from repro.core.majors import LockMinor, Major, ProcMinor
from repro.core.stream import Trace
from repro.store.query import Predicate, select
from repro.tools.context import ColumnarContext

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
    preemption check counts context switches *away from* the holder
    inside the hold window.  The lock and switch rows are mask-selected
    out of the event columns; the pairing replays only those rows.
    """
    b = as_batch(trace)
    report = HoldReport()
    acquires = (int(LockMinor.ACQUIRE), int(LockMinor.CONTEND_END))
    release = int(LockMinor.RELEASE)
    sel = np.flatnonzero(select(b, Predicate(
        majors=(int(Major.LOCK),), minors=acquires + (release,),
        min_data=1, timed_only=True)))
    ctx = ColumnarContext(b)

    # Context-switch-out times per thread for the window scan.
    sw = np.flatnonzero(select(b, Predicate(
        majors=(int(Major.PROC),), minors=(int(ProcMinor.CONTEXT_SWITCH),),
        min_data=2, timed_only=True)))
    switched_out: Dict[int, List[int]] = {}
    for thread, t in zip(b.data_column(0, sw).tolist(), b.time[sw].tolist()):
        switched_out.setdefault(thread, []).append(t)
    for times in switched_out.values():
        times.sort()

    open_holds: Dict[int, HoldRecord] = {}  # lock_id -> in-progress hold
    for minor, lock_id, t, thread, pid, known in zip(
            b.minor[sel].tolist(), b.data_column(0, sel).tolist(),
            b.time[sel].tolist(), ctx.thread[sel].tolist(),
            ctx.pid[sel].tolist(), ctx.known[sel].tolist()):
        if minor != release:
            open_holds[lock_id] = HoldRecord(
                lock_id=lock_id, holder=thread,
                holder_pid=pid if known else None, start=t, end=t)
            continue
        hold = open_holds.pop(lock_id, None)
        if hold is None:
            continue
        hold.end = t
        # Context switches away from the holder inside the window —
        # the §2 "what actually occurred" signal.
        outs = switched_out.get(hold.holder, ())
        hold.preemptions = (bisect_right(outs, hold.end)
                            - bisect_left(outs, hold.start))
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
