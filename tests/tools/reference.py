"""Per-event reference implementations of every column tool.

The tool-level sibling of :mod:`repro.check.oracle`: each function here
is the scalar walk its ``repro.tools`` namesake shipped before it was
ported onto event columns — moved, logic unchanged.  They visit
:class:`~repro.core.stream.TraceEvent` objects one at a time and share
no code with the column implementations except the report types they
fill in (and, for :class:`Timeline`, the rendering, which is not what
differs between the two), so ``test_columnar_tools.py`` can hold the
shipped tools to them.  :class:`ContextTracker` is the scalar context
replay the walks attribute events with, the reference for
:class:`~repro.tools.context.ColumnarContext`.

Inputs must be event-object traces (``Trace``): the walks read
``events_by_cpu`` / ``all_events()``.  A ``ColumnarTrace`` gets there
through ``to_trace()``.
"""

import bisect
from collections import Counter, defaultdict, deque
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import networkx as nx

from repro.core.majors import (
    ExcMinor,
    HwPerfMinor,
    IOMinor,
    LockMinor,
    Major,
    PcSampleMinor,
    ProcMinor,
    SyscallMinor,
)
from repro.core.stream import Trace, TraceEvent
from repro.ksim.hwcounters import HwCounter
from repro.tools import kmon
from repro.tools.breakdown import ProcessBreakdown, SyscallRow
from repro.tools.deadlock import DeadlockReport
from repro.tools.holdtimes import HoldRecord, HoldReport
from repro.tools.iostats import IoOp, IoReport
from repro.tools.listing import CYCLES_PER_SECOND
from repro.tools.lockstats import SORT_KEYS, LockStats
from repro.tools.memprofile import MemoryReport, ProcessMemoryStats
from repro.tools.schedstats import CpuSched, SchedReport


# -- context (§2's unified-facility attribution) ----------------------------
class ContextTracker:
    """Maps every event to the thread/process executing when it was logged.

    Built once per trace; lookups are O(1) by event identity.
    """

    def __init__(self, trace: Trace) -> None:
        #: thread addr -> pid, from TRC_PROC_THR_CREATE events.
        self.thread_pid: Dict[int, int] = {}
        #: event id() -> (thread addr or 0, pid or None)
        self._ctx: Dict[int, Tuple[int, Optional[int]]] = {}

        # Pass 1: thread->process mapping (global, time-independent).
        for events in trace.events_by_cpu.values():
            for e in events:
                if e.major == Major.PROC and e.minor == ProcMinor.THREAD_CREATE:
                    if len(e.data) >= 2:
                        self.thread_pid[e.data[0]] = e.data[1]

        # Pass 2: per-CPU replay of context switches.
        for cpu, events in trace.events_by_cpu.items():
            current = 0
            for e in events:
                if e.major == Major.PROC and e.minor == ProcMinor.CONTEXT_SWITCH:
                    if len(e.data) >= 2:
                        current = e.data[1]
                self._ctx[id(e)] = (current, self.thread_pid.get(current))

    def thread_of(self, event: TraceEvent) -> int:
        """Thread address executing when ``event`` was logged (0 unknown)."""
        return self._ctx.get(id(event), (0, None))[0]

    def pid_of(self, event: TraceEvent) -> Optional[int]:
        """Process id executing when ``event`` was logged."""
        return self._ctx.get(id(event), (0, None))[1]


# -- pcprofile (Figure 6) ---------------------------------------------------
def pc_profile(
    trace: Trace,
    pc_names: Optional[Dict[int, str]] = None,
    pid: Optional[int] = None,
) -> List[Tuple[int, str]]:
    counts: Counter = Counter()
    for e in trace.all_events():
        if e.major != Major.PCSAMPLE or e.minor != PcSampleMinor.SAMPLE:
            continue
        if len(e.data) < 2:
            continue
        sample_pid, pc = e.data[0], e.data[1]
        if pid is not None and sample_pid != pid:
            continue
        name = (pc_names or {}).get(pc, f"{pc:#x}")
        counts[name] += 1
    return sorted(
        ((count, name) for name, count in counts.items()),
        key=lambda x: (-x[0], x[1]),
    )


def profile_pids(trace: Trace) -> List[int]:
    pids = set()
    for e in trace.all_events():
        if e.major == Major.PCSAMPLE and len(e.data) >= 2:
            pids.add(e.data[0])
    return sorted(pids)


# -- listing (Figure 5) -----------------------------------------------------
def event_listing(
    trace: Trace,
    start: Optional[float] = None,
    end: Optional[float] = None,
    cpu: Optional[int] = None,
    names: Optional[Iterable[str]] = None,
    include_control: bool = False,
    limit: Optional[int] = None,
) -> List[TraceEvent]:
    wanted = set(names) if names is not None else None
    out: List[TraceEvent] = []
    for e in trace.all_events():
        if not include_control and e.is_control:
            continue
        if cpu is not None and e.cpu != cpu:
            continue
        t = (e.time or 0) / CYCLES_PER_SECOND
        if start is not None and t < start:
            continue
        if end is not None and t > end:
            continue
        if wanted is not None and e.name not in wanted:
            continue
        out.append(e)
        if limit is not None and len(out) >= limit:
            break
    return out


# -- lockstats (Figure 7) ---------------------------------------------------
def lock_statistics(
    trace: Trace,
    sort_by: str = "time",
    group_by_pid: bool = True,
    collect_waits: bool = False,
) -> List[LockStats]:
    ctx = ContextTracker(trace)
    # FIFO pending starts per lock: (start_event, chain_id, pid)
    pending: Dict[int, deque] = defaultdict(deque)
    groups: Dict[Tuple[int, int, Optional[int]], LockStats] = {}

    def group(lock_id: int, chain_id: int, pid: Optional[int]) -> LockStats:
        key = (lock_id, chain_id, pid if group_by_pid else None)
        st = groups.get(key)
        if st is None:
            st = LockStats(lock_id, chain_id, key[2])
            groups[key] = st
        return st

    for e in trace.all_events():
        if e.major != Major.LOCK:
            continue
        if e.minor == LockMinor.CONTEND_START and len(e.data) >= 2:
            lock_id, chain_id = e.data[0], e.data[1]
            pending[lock_id].append((e, chain_id, ctx.pid_of(e)))
        elif e.minor == LockMinor.CONTEND_END and len(e.data) >= 2:
            lock_id, spins = e.data[0], e.data[1]
            if pending[lock_id]:
                start, chain_id, pid = pending[lock_id].popleft()
                wait = max(0, (e.time or 0) - (start.time or 0))
                st = group(lock_id, chain_id, pid)
                st.count += 1
                st.spins += spins
                st.total_wait_cycles += wait
                st.max_wait_cycles = max(st.max_wait_cycles, wait)
                if collect_waits:
                    st.waits.append(wait)

    # Starts never matched (still waiting at trace end — deadlock food).
    for lock_id, dq in pending.items():
        for start, chain_id, pid in dq:
            st = group(lock_id, chain_id, pid)
            st.unmatched_starts += 1

    return sorted(groups.values(), key=SORT_KEYS[sort_by], reverse=True)


# -- breakdown (Figure 8) ---------------------------------------------------
def process_breakdown(
    trace: Trace,
    syscall_names: Optional[Dict[int, str]] = None,
    process_names: Optional[Dict[int, str]] = None,
    fs_function_names: Optional[Dict[int, str]] = None,
) -> Dict[int, ProcessBreakdown]:
    ctx = ContextTracker(trace)
    out: Dict[int, ProcessBreakdown] = {}

    def bd(pid: int) -> ProcessBreakdown:
        b = out.get(pid)
        if b is None:
            b = ProcessBreakdown(pid, (process_names or {}).get(pid, ""))
            out[pid] = b
        return b

    # Per-pid open syscall: (name, enter_time, row-accumulators)
    open_call: Dict[int, Tuple[str, int, SyscallRow]] = {}
    # Per-pid open PPC: (comm_id, call_time)
    open_ppc: Dict[int, Tuple[int, int]] = {}
    # Per-thread open page fault: fault start time
    open_fault: Dict[int, int] = {}

    for e in trace.all_events():
        if e.is_control:
            continue
        pid = ctx.pid_of(e)
        if pid is not None:
            bd(pid).total_events += 1
            oc = open_call.get(pid)
            if oc is not None:
                oc[2].events += 1

        if e.major == Major.SYSCALL and len(e.data) >= 2:
            sc_pid, num = e.data[0], e.data[1]
            name = (syscall_names or {}).get(num, f"SC{num}")
            if e.minor == SyscallMinor.ENTER:
                b = bd(sc_pid)
                row = b.syscalls.get(name)
                if row is None:
                    row = SyscallRow(name)
                    b.syscalls[name] = row
                open_call[sc_pid] = (name, e.time or 0, row)
            elif e.minor == SyscallMinor.EXIT:
                oc = open_call.pop(sc_pid, None)
                if oc is not None:
                    name_, t0, row = oc
                    elapsed = e.data[2] if len(e.data) >= 3 else max(
                        0, (e.time or 0) - t0
                    )
                    row.total_cycles += elapsed
                    row.calls += 1
                    bd(sc_pid).total_syscall_cycles += elapsed

        elif e.major == Major.EXC and len(e.data) >= 1:
            if e.minor == ExcMinor.PPC_CALL and pid is not None:
                open_ppc[pid] = (e.data[0], e.time or 0)
            elif e.minor == ExcMinor.PPC_RETURN and pid is not None:
                op = open_ppc.pop(pid, None)
                if op is not None:
                    comm_id, t0 = op
                    cycles = max(0, (e.time or 0) - t0)
                    b = bd(pid)
                    b.total_ipc_cycles += cycles
                    b.total_ipc_calls += 1
                    oc = open_call.get(pid)
                    if oc is not None:
                        oc[2].ipc_cycles += cycles
                        oc[2].ipc_calls += 1
                    # Attribute the service to the server process too.
                    server_pid = comm_id >> 32
                    fn_id = comm_id & 0xFFFF_FFFF
                    fn = (fs_function_names or {}).get(fn_id, f"fn{fn_id}")
                    sb = bd(server_pid)
                    calls, cyc = sb.server_functions.get(fn, (0, 0))
                    sb.server_functions[fn] = (calls + 1, cyc + cycles)
            elif e.minor == ExcMinor.PGFLT and len(e.data) >= 2:
                open_fault[e.data[0]] = e.time or 0
            elif e.minor == ExcMinor.PGFLT_DONE and len(e.data) >= 2:
                t0 = open_fault.pop(e.data[0], None)
                if t0 is not None and pid is not None:
                    cycles = max(0, (e.time or 0) - t0)
                    b = bd(pid)
                    b.total_fault_cycles += cycles
                    b.total_faults += 1
                    oc = open_call.get(pid)
                    if oc is not None:
                        oc[2].fault_cycles += cycles
                        oc[2].faults += 1

    return out


# -- schedstats (§4.5) ------------------------------------------------------
def sched_statistics(trace: Trace) -> SchedReport:
    report = SchedReport()
    t_min: Optional[int] = None
    t_max: Optional[int] = None

    for events in trace.events_by_cpu.values():
        for e in events:
            if (e.major == Major.PROC
                    and e.minor == ProcMinor.THREAD_CREATE
                    and len(e.data) >= 2):
                report.thread_pid[e.data[0]] = e.data[1]

    for cpu, events in trace.events_by_cpu.items():
        stats = report.per_cpu.setdefault(cpu, CpuSched(cpu))
        running: Optional[int] = None   # thread addr
        busy_from: Optional[int] = None
        for e in events:
            if e.time is None:
                continue
            t_min = e.time if t_min is None else min(t_min, e.time)
            t_max = e.time if t_max is None else max(t_max, e.time)
            if e.major == Major.PROC:
                if e.minor == ProcMinor.CONTEXT_SWITCH and len(e.data) >= 2:
                    stats.context_switches += 1
                    if running is not None and busy_from is not None:
                        self_time = e.time - busy_from
                        pid = report.thread_pid.get(running)
                        if pid is not None:
                            report.process_time[pid] = (
                                report.process_time.get(pid, 0) + self_time
                            )
                        stats.busy_cycles += self_time
                    running = e.data[1]
                    busy_from = e.time
                elif e.minor == ProcMinor.IDLE_START:
                    if running is not None and busy_from is not None:
                        self_time = e.time - busy_from
                        pid = report.thread_pid.get(running)
                        if pid is not None:
                            report.process_time[pid] = (
                                report.process_time.get(pid, 0) + self_time
                            )
                        stats.busy_cycles += self_time
                    running = None
                    busy_from = None
                elif e.minor == ProcMinor.MIGRATE:
                    stats.migrations_in += 1
            elif e.major == Major.EXC \
                    and e.minor == ExcMinor.TIMER_INTERRUPT:
                stats.timer_interrupts += 1
        # Close the final interval at the CPU's last event.
        if running is not None and busy_from is not None and events:
            last = events[-1].time
            if last is not None and last > busy_from:
                pid = report.thread_pid.get(running)
                if pid is not None:
                    report.process_time[pid] = (
                        report.process_time.get(pid, 0) + (last - busy_from)
                    )
                stats.busy_cycles += last - busy_from
    report.span_cycles = (t_max - t_min) if t_min is not None else 0
    return report


# -- kmon (Figure 4) --------------------------------------------------------
class Timeline(kmon.Timeline):
    """The timeline with lanes, intervals and markers walked per event.

    Only what the shipped class derives from columns is replaced; the
    ``render``/``render_svg``/``show_processes`` code that draws the
    derived lanes is inherited.
    """

    def __init__(self, trace: Trace,
                 window: Optional[Tuple[int, int]] = None) -> None:
        self.trace = trace
        self.marks: List[str] = []
        self.process_pids: List[int] = []
        self.process_names: Dict[int, str] = {}
        self._lanes: List[kmon._Lane] = []
        all_times: List[int] = []
        for cpu in sorted(trace.events_by_cpu):
            events = [e for e in trace.events(cpu) if e.time is not None]
            times = [e.time for e in events]
            all_times.extend(times)
            self._lanes.append(
                kmon._Lane(cpu, self._busy_intervals(events), times)
            )
        if not all_times:
            raise ValueError("trace has no timestamped events")
        self.t0, self.t1 = min(all_times), max(all_times)
        self._pid_intervals = self._per_process_intervals(trace)
        if window is not None:
            self.t0, self.t1 = window
        if self.t1 <= self.t0:
            self.t1 = self.t0 + 1

    @staticmethod
    def _per_process_intervals(trace: Trace) -> Dict[int, List[Tuple[int, int]]]:
        """Per-process run intervals, replayed from context switches."""
        thread_pid: Dict[int, int] = {}
        for events in trace.events_by_cpu.values():
            for e in events:
                if (e.major == Major.PROC
                        and e.minor == ProcMinor.THREAD_CREATE
                        and len(e.data) >= 2):
                    thread_pid[e.data[0]] = e.data[1]
        intervals: Dict[int, List[Tuple[int, int]]] = {}
        for cpu, events in trace.events_by_cpu.items():
            current_pid: Optional[int] = None
            since: Optional[int] = None
            for e in events:
                if (e.major != Major.PROC
                        or e.minor != ProcMinor.CONTEXT_SWITCH
                        or len(e.data) < 2 or e.time is None):
                    continue
                if current_pid is not None and since is not None:
                    intervals.setdefault(current_pid, []).append(
                        (since, e.time)
                    )
                current_pid = thread_pid.get(e.data[1])
                since = e.time
            if current_pid is not None and since is not None and events:
                last = events[-1].time
                if last is not None and last > since:
                    intervals.setdefault(current_pid, []).append(
                        (since, last)
                    )
        return intervals

    @staticmethod
    def _busy_intervals(events: Sequence[TraceEvent]) -> List[Tuple[int, int]]:
        """Reconstruct busy periods from IDLE_START/IDLE_END events.

        A CPU starts idle; the first IDLE_END begins its first busy
        interval.  A CPU with activity but no idle events is busy from
        its first to its last event.
        """
        intervals: List[Tuple[int, int]] = []
        busy_from: Optional[int] = None
        saw_idle_event = False
        for e in events:
            if e.major != Major.PROC:
                continue
            if e.minor == ProcMinor.IDLE_END:
                saw_idle_event = True
                if busy_from is None:
                    busy_from = e.time
            elif e.minor == ProcMinor.IDLE_START:
                saw_idle_event = True
                if busy_from is not None:
                    intervals.append((busy_from, e.time))
                    busy_from = None
        if busy_from is not None and events:
            intervals.append((busy_from, events[-1].time))
        if not saw_idle_event and events:
            intervals.append((events[0].time, events[-1].time))
        return intervals

    def zoom(self, start_seconds: float, end_seconds: float) -> "Timeline":
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

    def marked_counts(self) -> Dict[str, int]:
        counts = {name: 0 for name in self.marks}
        for e in self.trace.all_events():
            if e.name in counts and e.time is not None \
                    and self.t0 <= e.time <= self.t1:
                counts[e.name] += 1
        return counts

    def _marker_times(self, name: str) -> List[int]:
        return sorted(
            e.time for e in self.trace.all_events()
            if e.name == name and e.time is not None
        )

    def events_near(self, at_seconds: float, window_seconds: float = 1e-4,
                    limit: int = 30) -> List[TraceEvent]:
        return event_listing(
            self.trace,
            start=at_seconds - window_seconds,
            end=at_seconds + window_seconds,
            limit=limit,
        )


# -- holds (§2's long-hold-time anecdote) -----------------------------------
def hold_times(trace: Trace) -> HoldReport:
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
            lo = bisect.bisect_left(outs, hold.start)
            hi = bisect.bisect_right(outs, hold.end)
            hold.preemptions = hi - lo
            report.holds.append(hold)
    report.unreleased = len(open_holds)
    return report


# -- memprofile (§2's hardware-counter integration) -------------------------
def memory_profile(
    trace: Trace,
    process_names: Optional[Dict[int, str]] = None,
    buckets: int = 20,
) -> MemoryReport:
    ctx = ContextTracker(trace)
    report = MemoryReport()
    samples: List[Tuple[int, Optional[int], int, int]] = []  # (t, pid, ctr, d)
    t_min = t_max = None
    for e in trace.all_events():
        if e.major != Major.HWPERF or e.minor != HwPerfMinor.COUNTER_SAMPLE:
            continue
        if len(e.data) < 2 or e.time is None:
            continue
        counter, delta = e.data[0], e.data[1]
        pid = ctx.pid_of(e)
        samples.append((e.time, pid, counter, delta))
        t_min = e.time if t_min is None else min(t_min, e.time)
        t_max = e.time if t_max is None else max(t_max, e.time)
    if not samples:
        return report
    report.span_cycles = (t_max - t_min) or 1
    bucket_w = max(1, report.span_cycles // buckets)
    bucket_map: Dict[int, Dict[int, int]] = defaultdict(lambda: defaultdict(int))
    for t, pid, counter, delta in samples:
        if pid is None:
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
    for b in sorted(bucket_map):
        report.timeline.append((t_min + b * bucket_w, dict(bucket_map[b])))
    return report


# -- iostats (§2) -----------------------------------------------------------
_IO_START = {IOMinor.READ_START: "read", IOMinor.WRITE_START: "write"}
_IO_DONE = {IOMinor.READ_DONE: "read", IOMinor.WRITE_DONE: "write"}


def io_statistics(trace: Trace) -> IoReport:
    report = IoReport()
    open_ops: Dict[Tuple[int, int, str], Tuple[int, int]] = {}
    for e in trace.all_events():
        if e.time is None:
            continue
        if e.major == Major.IO and len(e.data) >= 2:
            if e.minor in _IO_START:
                kind = _IO_START[e.minor]
                nbytes = e.data[2] if len(e.data) >= 3 else 0
                open_ops[(e.data[0], e.data[1], kind)] = (e.time, nbytes)
            elif e.minor in _IO_DONE:
                kind = _IO_DONE[e.minor]
                key = (e.data[0], e.data[1], kind)
                started = open_ops.pop(key, None)
                if started is None:
                    report.unmatched += 1
                    continue
                t0, nbytes = started
                report.ops.append(IoOp(
                    pid=e.data[0], fd=e.data[1], kind=kind,
                    nbytes=nbytes, start=t0, end=e.time,
                ))
        elif e.major == Major.EXC and e.minor == ExcMinor.IO_INTERRUPT \
                and e.data:
            dev = e.data[0]
            report.interrupts[dev] = report.interrupts.get(dev, 0) + 1
    report.unmatched += len(open_ops)
    return report


# -- pathstats (§4.2) -------------------------------------------------------
def event_histogram(
    trace: Trace, include_control: bool = False
) -> List[Tuple[int, str]]:
    counts: Counter = Counter()
    for e in trace.all_events():
        if e.is_control and not include_control:
            continue
        counts[e.name] += 1
    return sorted(((c, n) for n, c in counts.items()), key=lambda x: (-x[0], x[1]))


def path_frequencies(
    trace: Trace, cpu: Optional[int] = None
) -> List[Tuple[int, Tuple[str, str]]]:
    counts: Counter = Counter()
    cpus = [cpu] if cpu is not None else sorted(trace.events_by_cpu)
    for c in cpus:
        prev = None
        for e in trace.events(c):
            if e.is_control:
                continue
            if prev is not None:
                counts[(prev.name, e.name)] += 1
            prev = e
    return sorted(((n, pair) for pair, n in counts.items()),
                  key=lambda x: (-x[0], x[1]))


# -- deadlock (§4.2) --------------------------------------------------------
def find_deadlocks(trace: Trace) -> DeadlockReport:
    ctx = ContextTracker(trace)
    owners: Dict[int, int] = {}            # lock -> thread addr
    waiting: Dict[int, int] = {}           # thread addr -> lock
    pending: Dict[int, deque] = defaultdict(deque)  # lock -> waiter threads

    for e in trace.all_events():
        if e.major != Major.LOCK or not e.data:
            continue
        lock_id = e.data[0]
        thread = ctx.thread_of(e)
        if e.minor == LockMinor.ACQUIRE:
            owners[lock_id] = thread
        elif e.minor == LockMinor.CONTEND_START:
            waiting[thread] = lock_id
            pending[lock_id].append(thread)
        elif e.minor == LockMinor.CONTEND_END:
            # FIFO grant: the longest waiter becomes the owner.
            if pending[lock_id]:
                waiter = pending[lock_id].popleft()
                waiting.pop(waiter, None)
                owners[lock_id] = waiter
            else:
                owners[lock_id] = thread
        elif e.minor == LockMinor.RELEASE:
            owners.pop(lock_id, None)

    graph = nx.DiGraph()
    for waiter, lock_id in waiting.items():
        owner = owners.get(lock_id)
        if owner is not None and owner != waiter:
            graph.add_edge(waiter, owner)
    cycles = [list(c) for c in nx.simple_cycles(graph)]
    return DeadlockReport(cycles=cycles, waiting_on=dict(waiting),
                          owners=dict(owners))
