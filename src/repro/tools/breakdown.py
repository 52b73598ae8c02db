"""Fine-grained system behaviour breakdown — the Figure 8 tool (§4.7).

"K42 tracing data is detailed and fine-grained enough to allow us to
attribute time accurately among processes, thread switches, IPC
activity, page-faults, and transitions to and from the Linux emulation
layer ... Within server processes and the kernel we identify how much
time is spent servicing IPC calls made by other applications, which is
then categorized by function."

Reconstruction is trace-only: syscall enter/exit events bracket each
call; PPC call/return pairs inside the bracket attribute IPC time; page
fault pairs attribute fault time; everything else inside the bracket is
the call's own computation.  Times print in microseconds like Figure 8.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.core.columnar import as_batch
from repro.core.majors import ExcMinor, Major, SyscallMinor
from repro.core.stream import Trace
from repro.store.query import Predicate, select
from repro.tools.context import ColumnarContext, _columnar_only

CYCLES_PER_US = 1_000  # 1 GHz reference machine


@dataclass
class SyscallRow:
    """One Figure 8 row: a syscall's aggregate behaviour in a process."""

    name: str
    total_cycles: int = 0
    calls: int = 0
    events: int = 0
    ipc_cycles: int = 0
    ipc_calls: int = 0
    fault_cycles: int = 0
    faults: int = 0

    @property
    def compute_us(self) -> float:
        """Time in the call minus attributed IPC and fault service."""
        return max(0, self.total_cycles - self.ipc_cycles - self.fault_cycles) / CYCLES_PER_US

    @property
    def ipc_us(self) -> float:
        return self.ipc_cycles / CYCLES_PER_US


@dataclass
class ProcessBreakdown:
    pid: int
    name: str = ""
    syscalls: Dict[str, SyscallRow] = field(default_factory=dict)
    total_events: int = 0
    total_syscall_cycles: int = 0
    total_ipc_cycles: int = 0
    total_ipc_calls: int = 0
    total_fault_cycles: int = 0
    total_faults: int = 0
    #: IPC service seen inside servers, per function: (calls, cycles)
    server_functions: Dict[str, Tuple[int, int]] = field(default_factory=dict)

    @property
    def ex_process_us(self) -> float:
        """Time spent outside the process on its behalf (kernel+server)."""
        return (self.total_ipc_cycles + self.total_fault_cycles) / CYCLES_PER_US


def process_breakdown(
    trace: Trace,
    syscall_names: Optional[Dict[int, str]] = None,
    process_names: Optional[Dict[int, str]] = None,
    fs_function_names: Optional[Dict[int, str]] = None,
    columnar: bool = True,
) -> Dict[int, ProcessBreakdown]:
    """Build per-process breakdowns from the unified trace.

    Only the syscall/IPC/fault boundary events are replayed; the
    per-call event counts and per-process totals come from binary search
    over position columns.  ``columnar`` selects nothing; ``False``
    raises.
    """
    _columnar_only("process_breakdown", columnar)
    b = as_batch(trace)
    ctx = ColumnarContext(b)
    out: Dict[int, ProcessBreakdown] = {}

    def bd(pid: int) -> ProcessBreakdown:
        r = out.get(pid)
        if r is None:
            r = ProcessBreakdown(pid, (process_names or {}).get(pid, ""))
            out[pid] = r
        return r

    # Countable rows: every non-control event whose executing pid is
    # known counts toward its process and, inside a call window, toward
    # the call (the "generic step", taken before the event is handled).
    countable = ~b.control_mask() & ctx.known
    g_idx = np.flatnonzero(countable)
    g_pid = ctx.pid[g_idx]

    # The state machine only ever reacts to these boundary events.
    sm = select(b, Predicate(
        majors=(int(Major.SYSCALL),),
        minors=(int(SyscallMinor.ENTER), int(SyscallMinor.EXIT)),
        min_data=2))
    sm |= select(b, Predicate(
        majors=(int(Major.EXC),),
        minors=(int(ExcMinor.PPC_CALL), int(ExcMinor.PPC_RETURN),
                int(ExcMinor.PGFLT), int(ExcMinor.PGFLT_DONE)),
        min_data=1))
    sel = np.flatnonzero(sm)
    majors = b.major[sel].tolist()
    minors = b.minor[sel].tolist()
    dlens = b.dlen[sel].tolist()
    d0 = b.data_column(0, sel).tolist()
    d1 = b.data_column(1, sel).tolist()
    d2 = b.data_column(2, sel).tolist()      # valid only where dlen >= 3
    tv = [t if f else 0
          for t, f in zip(b.time[sel].tolist(), b.timed[sel].tolist())]
    pid_k = ctx.known[sel].tolist()
    pid_v = ctx.pid[sel].tolist()
    pos = sel.tolist()

    syscall_major = int(Major.SYSCALL)
    enter_minor = int(SyscallMinor.ENTER)
    exit_minor = int(SyscallMinor.EXIT)
    ppc_call = int(ExcMinor.PPC_CALL)
    ppc_return = int(ExcMinor.PPC_RETURN)
    pgflt = int(ExcMinor.PGFLT)
    pgflt_done = int(ExcMinor.PGFLT_DONE)

    # Per-pid open syscall: (enter_position, enter_time, row)
    open_call: Dict[int, Tuple[int, int, SyscallRow]] = {}
    open_ppc: Dict[int, Tuple[int, int]] = {}
    open_fault: Dict[int, int] = {}
    #: closed (and trace-end) call windows: (pid, open_pos, close_pos, row);
    #: the window covers merged positions (open_pos, close_pos].
    windows: List[Tuple[int, int, int, SyscallRow]] = []
    end_pos = len(b)  # exclusive upper bound, > any real position

    for i in range(len(sel)):
        pid = pid_v[i] if pid_k[i] else None
        if majors[i] == syscall_major:
            sc_pid, num = d0[i], d1[i]
            name = (syscall_names or {}).get(num, f"SC{num}")
            if minors[i] == enter_minor:
                r = bd(sc_pid)
                row = r.syscalls.get(name)
                if row is None:
                    row = SyscallRow(name)
                    r.syscalls[name] = row
                prev = open_call.get(sc_pid)
                if prev is not None:
                    # The replacing ENTER itself still counts toward the
                    # replaced call (generic step precedes replacement).
                    windows.append((sc_pid, prev[0], pos[i], prev[2]))
                open_call[sc_pid] = (pos[i], tv[i], row)
            else:
                oc = open_call.pop(sc_pid, None)
                if oc is not None:
                    open_pos, t0, row = oc
                    elapsed = d2[i] if dlens[i] >= 3 else max(0, tv[i] - t0)
                    row.total_cycles += elapsed
                    row.calls += 1
                    bd(sc_pid).total_syscall_cycles += elapsed
                    windows.append((sc_pid, open_pos, pos[i], row))
        else:
            if minors[i] == ppc_call:
                if pid is not None:
                    open_ppc[pid] = (d0[i], tv[i])
            elif minors[i] == ppc_return:
                if pid is not None:
                    op = open_ppc.pop(pid, None)
                    if op is not None:
                        comm_id, t0 = op
                        cycles = max(0, tv[i] - t0)
                        r = bd(pid)
                        r.total_ipc_cycles += cycles
                        r.total_ipc_calls += 1
                        oc = open_call.get(pid)
                        if oc is not None:
                            oc[2].ipc_cycles += cycles
                            oc[2].ipc_calls += 1
                        server_pid = comm_id >> 32
                        fn_id = comm_id & 0xFFFF_FFFF
                        fn = (fs_function_names or {}).get(fn_id, f"fn{fn_id}")
                        sb = bd(server_pid)
                        calls, cyc = sb.server_functions.get(fn, (0, 0))
                        sb.server_functions[fn] = (calls + 1, cyc + cycles)
            elif minors[i] == pgflt:
                if dlens[i] >= 2:
                    open_fault[d0[i]] = tv[i]
            elif minors[i] == pgflt_done:
                if dlens[i] >= 2:
                    t0 = open_fault.pop(d0[i], None)
                    if t0 is not None and pid is not None:
                        cycles = max(0, tv[i] - t0)
                        r = bd(pid)
                        r.total_fault_cycles += cycles
                        r.total_faults += 1
                        oc = open_call.get(pid)
                        if oc is not None:
                            oc[2].fault_cycles += cycles
                            oc[2].faults += 1

    # Calls still open at trace end count every later event of their pid.
    for sc_pid, (open_pos, _t0, row) in open_call.items():
        windows.append((sc_pid, open_pos, end_pos, row))

    # Per-process totals and per-call event counts, by binary search
    # over each pid's countable-position column.
    if len(g_idx):
        order = np.argsort(g_pid, kind="stable")
        gp_sorted = g_pid[order]
        gi_sorted = g_idx[order]
        uniq, starts, counts = np.unique(gp_sorted, return_index=True,
                                         return_counts=True)
        pos_by_pid: Dict[int, np.ndarray] = {}
        for p, s, c in zip(uniq.tolist(), starts.tolist(), counts.tolist()):
            pos_by_pid[p] = gi_sorted[s : s + c]
            bd(p).total_events = c
        for sc_pid, open_pos, close_pos, row in windows:
            ppos = pos_by_pid.get(sc_pid)
            if ppos is None:
                continue
            # Window (open_pos, close_pos]: the opening ENTER is excluded,
            # the closing event included — the generic step runs before
            # the handler replaces/pops the open call.
            lo = int(np.searchsorted(ppos, open_pos, side="right"))
            hi = int(np.searchsorted(ppos, close_pos, side="right"))
            row.events += hi - lo

    return out


def format_breakdown(breakdown: ProcessBreakdown, top: Optional[int] = None) -> str:
    """Render one process's Figure 8-style table (times in usecs)."""
    lines = [
        f"process {breakdown.pid} {breakdown.name}".rstrip(),
        f"{'':24} {'time':>12} {'calls':>7} {'events':>7}   "
        f"{'ipc time':>12} {'ipcs':>6}",
    ]
    rows = sorted(
        breakdown.syscalls.values(), key=lambda r: -r.total_cycles
    )
    for row in rows[:top]:
        lines.append(
            f"{row.name:<24} {row.compute_us:>12.2f} {row.calls:>7} "
            f"{row.events:>7}   {row.ipc_us:>12.2f} {row.ipc_calls:>6}"
        )
    lines.append(
        f"{'Ex-process':<24} {breakdown.ex_process_us:>12.2f} "
        f"{breakdown.total_ipc_calls + breakdown.total_faults:>7}"
    )
    if breakdown.server_functions:
        lines.append("thread entry points:")
        for fn, (calls, cycles) in sorted(
            breakdown.server_functions.items(), key=lambda kv: -kv[1][1]
        ):
            lines.append(
                f"  {fn:<22} {cycles / CYCLES_PER_US:>12.2f} {calls:>7}"
            )
    return "\n".join(lines)


class UnknownPid(LookupError):
    """``--pid`` named a process the trace never ran."""


def report(trace, sym, opts) -> str:
    """The ``breakdown`` report: one Figure 8 table per process, or
    ``opts.pid``'s alone (:class:`UnknownPid` if the trace never ran it)."""
    from repro.ksim.ipc import FS_FUNCTION_NAMES

    bds = process_breakdown(trace, sym.syscall_names, sym.process_names,
                            FS_FUNCTION_NAMES)
    if opts.pid is not None and opts.pid not in bds:
        raise UnknownPid(f"no data for pid {opts.pid}")
    pids = sorted(bds) if opts.pid is None else [opts.pid]
    return "\n".join(format_breakdown(bds[pid]) + "\n" for pid in pids)
