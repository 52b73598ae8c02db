"""Comparing two traces — the §4 tuning loop, formalized.

"We went through a series of iterations where we used the lock analysis
tool to determine the most contended lock in the system, fixed it, and
then ran the tool again."  Each iteration ends with a human eyeballing
two reports.  This tool does the eyeballing: given a *before* and an
*after* trace, it diffs lock contention, the PC profile, event
frequencies, and gross timing, and reports what the "fix" actually
changed — including regressions (a fix that moves contention elsewhere
shows up immediately).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.core.columnar import as_batch
from repro.core.stream import Trace
from repro.tools.lockstats import lock_statistics
from repro.tools.pathstats import event_histogram
from repro.tools.pcprofile import pc_profile

CYCLES_PER_US = 1_000


@dataclass
class LockDelta:
    lock_id: int
    before_wait: int
    after_wait: int
    before_count: int
    after_count: int

    @property
    def wait_change(self) -> int:
        return self.after_wait - self.before_wait

    @property
    def improved(self) -> bool:
        return self.after_wait < self.before_wait


@dataclass
class TraceComparison:
    span_before: int
    span_after: int
    lock_deltas: List[LockDelta] = field(default_factory=list)
    #: function -> (samples before, samples after)
    profile_deltas: Dict[str, Tuple[int, int]] = field(default_factory=dict)
    #: event name -> (count before, count after)
    event_deltas: Dict[str, Tuple[int, int]] = field(default_factory=dict)

    @property
    def speedup(self) -> float:
        return self.span_before / self.span_after if self.span_after else 0.0

    @property
    def total_wait_before(self) -> int:
        return sum(d.before_wait for d in self.lock_deltas)

    @property
    def total_wait_after(self) -> int:
        return sum(d.after_wait for d in self.lock_deltas)

    def regressions(self) -> List[LockDelta]:
        """Locks whose contention grew — where the problem moved to."""
        return sorted(
            (d for d in self.lock_deltas if d.wait_change > 0),
            key=lambda d: -d.wait_change,
        )

    def improvements(self) -> List[LockDelta]:
        return sorted(
            (d for d in self.lock_deltas if d.wait_change < 0),
            key=lambda d: d.wait_change,
        )


def _span(trace: Trace) -> int:
    b = as_batch(trace)
    times = b.time[b.timed].tolist()
    return (max(times) - min(times)) if times else 0


def compare_traces(
    before: Trace,
    after: Trace,
    pc_names: Optional[Dict[int, str]] = None,
) -> TraceComparison:
    """Diff two traces of the same workload."""
    comparison = TraceComparison(
        span_before=_span(before), span_after=_span(after)
    )

    # Lock contention, aggregated per lock across chains/pids.
    def per_lock(trace: Trace) -> Dict[int, Tuple[int, int]]:
        acc: Dict[int, Tuple[int, int]] = {}
        for s in lock_statistics(trace, group_by_pid=False):
            wait, count = acc.get(s.lock_id, (0, 0))
            acc[s.lock_id] = (wait + s.total_wait_cycles, count + s.count)
        return acc

    locks_b = per_lock(before)
    locks_a = per_lock(after)
    for lock_id in sorted(set(locks_b) | set(locks_a)):
        bw, bc = locks_b.get(lock_id, (0, 0))
        aw, ac = locks_a.get(lock_id, (0, 0))
        comparison.lock_deltas.append(
            LockDelta(lock_id, bw, aw, bc, ac)
        )

    prof_b = dict((n, c) for c, n in pc_profile(before, pc_names))
    prof_a = dict((n, c) for c, n in pc_profile(after, pc_names))
    for name in sorted(set(prof_b) | set(prof_a)):
        comparison.profile_deltas[name] = (
            prof_b.get(name, 0), prof_a.get(name, 0)
        )

    hist_b = dict((n, c) for c, n in event_histogram(before))
    hist_a = dict((n, c) for c, n in event_histogram(after))
    for name in sorted(set(hist_b) | set(hist_a)):
        comparison.event_deltas[name] = (
            hist_b.get(name, 0), hist_a.get(name, 0)
        )
    return comparison


def format_comparison(
    comparison: TraceComparison,
    lock_names: Optional[Dict[int, str]] = None,
    top: int = 5,
) -> str:
    """Render the before/after report."""
    c = comparison
    lines = [
        f"elapsed: {c.span_before / CYCLES_PER_US:,.0f} us -> "
        f"{c.span_after / CYCLES_PER_US:,.0f} us "
        f"({c.speedup:.2f}x)",
        f"total lock wait: {c.total_wait_before / CYCLES_PER_US:,.0f} us -> "
        f"{c.total_wait_after / CYCLES_PER_US:,.0f} us",
    ]

    def lock_name(lock_id: int) -> str:
        return (lock_names or {}).get(lock_id, f"{lock_id:#x}")

    improvements = c.improvements()[:top]
    if improvements:
        lines.append("improved locks:")
        for d in improvements:
            lines.append(
                f"  {lock_name(d.lock_id):<28} wait "
                f"{d.before_wait / CYCLES_PER_US:,.0f} -> "
                f"{d.after_wait / CYCLES_PER_US:,.0f} us "
                f"(count {d.before_count} -> {d.after_count})"
            )
    regressions = c.regressions()[:top]
    if regressions:
        lines.append("regressed locks (where the problem moved):")
        for d in regressions:
            lines.append(
                f"  {lock_name(d.lock_id):<28} wait "
                f"{d.before_wait / CYCLES_PER_US:,.0f} -> "
                f"{d.after_wait / CYCLES_PER_US:,.0f} us "
                f"(count {d.before_count} -> {d.after_count})"
            )
    moved = sorted(
        c.profile_deltas.items(), key=lambda kv: kv[1][0] - kv[1][1],
        reverse=True,
    )
    shrunk = [(n, b, a) for n, (b, a) in moved if b > a][:top]
    if shrunk:
        lines.append("functions with fewer samples after:")
        for n, b, a in shrunk:
            lines.append(f"  {n:<40} {b} -> {a}")
    return "\n".join(lines)
