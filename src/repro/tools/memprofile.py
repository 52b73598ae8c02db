"""Memory-behaviour analysis from sampled hardware counters (§2).

The paper's point about counter/tracing integration: because counter
samples are ordinary trace events, they can be "sampled and understood
at various stages throughout the programs or operating systems
execution" — attributed to processes via the scheduling events in the
same stream, and laid against time to find hot phases.

This tool does exactly that: it reads ``TRC_HWPERF_SAMPLE`` events,
attributes each period's miss delta to the process running on that CPU
at sample time, and reports per-process totals, rates, and a bucketed
time series (the memory hot-spot view).
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.core.columnar import as_batch
from repro.core.majors import HwPerfMinor, Major
from repro.core.stream import Trace
from repro.ksim.hwcounters import HwCounter
from repro.store.query import Predicate, select
from repro.tools.context import ColumnarContext

CYCLES_PER_US = 1_000


@dataclass
class ProcessMemoryStats:
    pid: int
    name: str = ""
    l2_misses: int = 0
    tlb_misses: int = 0
    samples: int = 0


@dataclass
class MemoryReport:
    per_process: Dict[int, ProcessMemoryStats] = field(default_factory=dict)
    #: (bucket start cycle, {pid: l2 misses in bucket})
    timeline: List[Tuple[int, Dict[int, int]]] = field(default_factory=list)
    total_l2: int = 0
    total_tlb: int = 0
    span_cycles: int = 0

    def hottest(self, n: int = 5) -> List[ProcessMemoryStats]:
        return sorted(self.per_process.values(),
                      key=lambda s: -s.l2_misses)[:n]


def memory_profile(
    trace: Trace,
    process_names: Optional[Dict[int, str]] = None,
    buckets: int = 20,
) -> MemoryReport:
    """Build the per-process / per-phase memory report from the trace.

    The samples and their pids are mask-selected out of the event
    columns; only the sample rows are folded into the report.
    """
    b = as_batch(trace)
    report = MemoryReport()
    sel = np.flatnonzero(select(b, Predicate(
        majors=(int(Major.HWPERF),),
        minors=(int(HwPerfMinor.COUNTER_SAMPLE),),
        min_data=2, timed_only=True)))
    if len(sel) == 0:
        return report
    ctx = ColumnarContext(b)
    times = b.time[sel].tolist()
    t_min = min(times)
    report.span_cycles = (max(times) - t_min) or 1
    bucket_w = max(1, report.span_cycles // buckets)
    bucket_map: Dict[int, Dict[int, int]] = defaultdict(lambda: defaultdict(int))
    for t, pid, known, counter, delta in zip(
            times, ctx.pid[sel].tolist(), ctx.known[sel].tolist(),
            b.data_column(0, sel).tolist(), b.data_column(1, sel).tolist()):
        if not known:
            pid = -1
        stats = report.per_process.get(pid)
        if stats is None:
            stats = ProcessMemoryStats(
                pid, (process_names or {}).get(pid, ""))
            report.per_process[pid] = stats
        stats.samples += 1
        if counter == HwCounter.L2_MISSES:
            stats.l2_misses += delta
            report.total_l2 += delta
            bucket = min(buckets - 1, (t - t_min) // bucket_w)
            bucket_map[bucket][pid] += delta
        elif counter == HwCounter.TLB_MISSES:
            stats.tlb_misses += delta
            report.total_tlb += delta
    for k in sorted(bucket_map):
        report.timeline.append((t_min + k * bucket_w, dict(bucket_map[k])))
    return report


def format_memory_report(report: MemoryReport, top: int = 8) -> str:
    """Render the memory hot-spot table plus a miss-density strip."""
    lines = [
        f"memory behaviour over {report.span_cycles / CYCLES_PER_US:,.0f} us: "
        f"{report.total_l2:,} L2 misses, {report.total_tlb:,} TLB misses",
        f"{'pid':>5} {'process':<16} {'L2 misses':>12} {'TLB misses':>12} "
        f"{'share':>7}",
    ]
    for s in report.hottest(top):
        share = 100.0 * s.l2_misses / max(1, report.total_l2)
        lines.append(
            f"{s.pid:>5} {s.name:<16} {s.l2_misses:>12,} "
            f"{s.tlb_misses:>12,} {share:>6.1f}%"
        )
    if report.timeline:
        peak = max(sum(b.values()) for _, b in report.timeline) or 1
        strip = "".join(
            " .:-=+*#%@"[min(9, sum(b.values()) * 9 // peak)]
            for _, b in report.timeline
        )
        lines.append(f"miss density over time: [{strip}]")
    return "\n".join(lines)


def report(trace, sym, opts) -> str:
    """The ``memprofile`` report: the ``opts.top`` hottest processes."""
    return format_memory_report(memory_profile(trace, sym.process_names),
                                top=opts.top)
