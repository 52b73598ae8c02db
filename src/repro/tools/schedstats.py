"""Scheduler statistics from the trace (§4.5's time-by-process view).

Statistical PC sampling answers "which *functions* are hot"; this tool
answers "where did the *CPU time* go" by replaying the scheduling events:
per-process run time (the elapsed-time breakdown the paper used to chase
its uniprocessor fork regression), per-CPU utilization, context-switch
and migration rates, and timer-preemption counts — all derived from the
same unified stream.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.core.columnar import ColumnarTrace, as_batch
from repro.core.majors import ExcMinor, Major, ProcMinor
from repro.core.stream import Trace
from repro.store.query import Predicate, select
from repro.tools.context import _columnar_only

CYCLES_PER_US = 1_000


@dataclass
class CpuSched:
    cpu: int
    busy_cycles: int = 0
    context_switches: int = 0
    timer_interrupts: int = 0
    migrations_in: int = 0


@dataclass
class SchedReport:
    span_cycles: int = 0
    per_cpu: Dict[int, CpuSched] = field(default_factory=dict)
    #: pid -> cycles actually on a CPU
    process_time: Dict[int, int] = field(default_factory=dict)
    #: thread addr -> pid (from thread-create events)
    thread_pid: Dict[int, int] = field(default_factory=dict)

    def utilization(self, cpu: int) -> float:
        if self.span_cycles == 0:
            return 0.0
        return self.per_cpu[cpu].busy_cycles / self.span_cycles

    def busiest_processes(self, n: int = 10) -> List[Tuple[int, int]]:
        return sorted(self.process_time.items(),
                      key=lambda kv: -kv[1])[:n]


def _trace_cpus(trace) -> List[int]:
    """The CPU universe of any trace form (including event-less CPUs)."""
    if isinstance(trace, ColumnarTrace):
        return trace.cpus
    ebc = getattr(trace, "events_by_cpu", None)
    if ebc is not None:
        return list(ebc)
    return np.unique(as_batch(trace).cpu).tolist()


def sched_statistics(trace: Trace, columnar: bool = True) -> SchedReport:
    """Replay scheduling events into the report.

    Switches/interrupts/migrations are counted with boolean masks per
    CPU; only the busy-interval boundary events are replayed.
    ``columnar`` selects nothing; ``False`` raises.
    """
    _columnar_only("sched_statistics", columnar)
    b = as_batch(trace)
    report = SchedReport()
    for cpu in _trace_cpus(trace):
        report.per_cpu.setdefault(cpu, CpuSched(cpu))
    n = len(b)
    if n == 0:
        return report

    order = b.order_by_stream()

    # thread -> pid mapping, last write wins in stream order.
    tc = select(b, Predicate(majors=(int(Major.PROC),),
                             minors=(int(ProcMinor.THREAD_CREATE),),
                             min_data=2))
    tc_idx = order[tc[order]]
    if len(tc_idx):
        for t, p in zip(b.data_column(0, tc_idx).tolist(),
                        b.data_column(1, tc_idx).tolist()):
            report.thread_pid[t] = p

    timed = b.timed
    # Global trace span over timestamped events.
    t_idx = np.flatnonzero(timed)
    if len(t_idx):
        tvals = b.time[t_idx]
        if tvals.dtype == object:
            tl = tvals.tolist()
            t_min, t_max = min(tl), max(tl)
        else:
            t_min, t_max = int(tvals.min()), int(tvals.max())
        report.span_cycles = t_max - t_min

    sw = select(b, Predicate(majors=(int(Major.PROC),),
                             minors=(int(ProcMinor.CONTEXT_SWITCH),),
                             min_data=2, timed_only=True))
    idle = select(b, Predicate(majors=(int(Major.PROC),),
                               minors=(int(ProcMinor.IDLE_START),),
                               timed_only=True))
    migrate = select(b, Predicate(majors=(int(Major.PROC),),
                                  minors=(int(ProcMinor.MIGRATE),),
                                  timed_only=True))
    timer = select(b, Predicate(majors=(int(Major.EXC),),
                                minors=(int(ExcMinor.TIMER_INTERRUPT),),
                                timed_only=True))

    cpu_sorted = b.cpu[order]
    bounds = np.flatnonzero(
        np.concatenate(([True], cpu_sorted[1:] != cpu_sorted[:-1]))
    ).tolist() + [n]
    for s, e_ in zip(bounds[:-1], bounds[1:]):
        seg = order[s:e_]                    # this CPU, decode order
        cpu = int(cpu_sorted[s])
        stats = report.per_cpu.setdefault(cpu, CpuSched(cpu))
        stats.context_switches += int(sw[seg].sum())
        stats.migrations_in += int(migrate[seg].sum())
        stats.timer_interrupts += int(timer[seg].sum())

        # Busy-interval replay over switch/idle boundaries only.
        bnd = seg[sw[seg] | idle[seg]]
        if len(bnd) == 0:
            continue
        is_sw = sw[bnd].tolist()
        bt = b.time[bnd].tolist()
        thr = b.data_column(1, bnd).tolist()  # valid only at switches
        running: Optional[int] = None
        busy_from: Optional[int] = None
        for i in range(len(bnd)):
            t = bt[i]
            if running is not None and busy_from is not None:
                self_time = t - busy_from
                pid = report.thread_pid.get(running)
                if pid is not None:
                    report.process_time[pid] = (
                        report.process_time.get(pid, 0) + self_time
                    )
                stats.busy_cycles += self_time
            if is_sw[i]:
                running = thr[i]
                busy_from = t
            else:
                running = None
                busy_from = None
        # Close the final interval at the CPU's last event.
        if running is not None and busy_from is not None:
            last_i = seg[-1]
            if b.timed[last_i]:
                last = int(b.time[last_i])
                if last > busy_from:
                    pid = report.thread_pid.get(running)
                    if pid is not None:
                        report.process_time[pid] = (
                            report.process_time.get(pid, 0)
                            + (last - busy_from)
                        )
                    stats.busy_cycles += last - busy_from
    return report


def format_sched_report(
    report: SchedReport,
    process_names: Optional[Dict[int, str]] = None,
    top: int = 10,
) -> str:
    """Render per-CPU rates and the CPU-time-by-process table."""
    lines = [
        f"scheduling over {report.span_cycles / CYCLES_PER_US:,.0f} us",
        f"{'cpu':>4} {'util':>7} {'ctxsw':>7} {'timer irq':>10} "
        f"{'migrations':>11}",
    ]
    for cpu in sorted(report.per_cpu):
        s = report.per_cpu[cpu]
        lines.append(
            f"{cpu:>4} {report.utilization(cpu) * 100:>6.1f}% "
            f"{s.context_switches:>7} {s.timer_interrupts:>10} "
            f"{s.migrations_in:>11}"
        )
    lines.append("CPU time by process:")
    for pid, cycles in report.busiest_processes(top):
        name = (process_names or {}).get(pid, "")
        lines.append(
            f"  pid {pid:>4} {name:<16} {cycles / CYCLES_PER_US:>12,.0f} us"
        )
    return "\n".join(lines)


def report(trace, sym, opts) -> str:
    """The ``sched`` report: per-CPU rates and ``opts.top`` processes.

    The one trace -> text entry, whatever the trace came from; a trace
    with no scheduling events renders zero rates over a zero span.
    """
    return format_sched_report(sched_statistics(trace), sym.process_names,
                               top=opts.top)


def fleet_rollup(view, sym, opts) -> str:
    """The fleet-wide report under a merged view's per-node sections.

    The same replay over the fleet lanes — each (node, cpu) pair keeps
    its own lane, so busy-interval replay never mixes streams — behind
    the lane legend, so lane numbers map back to nodes.
    """
    from repro.fleet.merge import lane_legend_line

    return (lane_legend_line(view) + "\n"
            + report(view.rollup_trace(), sym, opts))
