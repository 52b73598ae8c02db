"""I/O behaviour from the trace: latency, volume, interrupts (§2).

Pairs ``READ_START``/``READ_DONE`` and ``WRITE_START``/``WRITE_DONE``
events per (process, fd) to measure per-operation latency — including
the device queueing delay under load — and counts the completion
interrupts, all from the same unified stream.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field
from typing import Dict, List, Tuple

import numpy as np

from repro.core.columnar import as_batch
from repro.core.majors import ExcMinor, IOMinor, Major
from repro.core.stream import Trace
from repro.store.query import Predicate, select

CYCLES_PER_US = 1_000


@dataclass
class IoOp:
    pid: int
    fd: int
    kind: str          # "read" | "write"
    nbytes: int
    start: int
    end: int

    @property
    def latency(self) -> int:
        return self.end - self.start


@dataclass
class IoReport:
    ops: List[IoOp] = field(default_factory=list)
    interrupts: Dict[int, int] = field(default_factory=dict)  # device -> n
    unmatched: int = 0

    def per_process(self) -> Dict[int, Tuple[int, int, float, int]]:
        """pid -> (ops, bytes, mean latency, max latency)."""
        acc: Dict[int, List[IoOp]] = defaultdict(list)
        for op in self.ops:
            acc[op.pid].append(op)
        out = {}
        for pid, ops in acc.items():
            lats = [o.latency for o in ops]
            out[pid] = (
                len(ops), sum(o.nbytes for o in ops),
                sum(lats) / len(lats), max(lats),
            )
        return out

    def slowest(self, n: int = 10) -> List[IoOp]:
        return sorted(self.ops, key=lambda o: -o.latency)[:n]


_START = {IOMinor.READ_START: "read", IOMinor.WRITE_START: "write"}
_DONE = {IOMinor.READ_DONE: "read", IOMinor.WRITE_DONE: "write"}


def io_statistics(trace: Trace) -> IoReport:
    """Pair I/O start/done events and count device interrupts.

    Both kinds of row are mask-selected out of the event columns; the
    pairing replays only the timed I/O rows, in time order.
    """
    b = as_batch(trace)
    report = IoReport()
    sel = np.flatnonzero(select(b, Predicate(
        majors=(int(Major.IO),), minors=(*_START, *_DONE),
        min_data=2, timed_only=True)))
    nbytes = np.where(b.dlen[sel] >= 3, b.data_column(2, sel), 0)
    open_ops: Dict[Tuple[int, int, str], Tuple[int, int]] = {}
    for minor, pid, fd, n, t in zip(
            b.minor[sel].tolist(), b.data_column(0, sel).tolist(),
            b.data_column(1, sel).tolist(), nbytes.tolist(),
            b.time[sel].tolist()):
        kind = _START.get(minor)
        if kind is not None:
            open_ops[(pid, fd, kind)] = (t, n)
            continue
        kind = _DONE[minor]
        started = open_ops.pop((pid, fd, kind), None)
        if started is None:
            report.unmatched += 1
            continue
        t0, n = started
        report.ops.append(IoOp(pid=pid, fd=fd, kind=kind, nbytes=n,
                               start=t0, end=t))
    report.unmatched += len(open_ops)

    irq = np.flatnonzero(select(b, Predicate(
        majors=(int(Major.EXC),), minors=(int(ExcMinor.IO_INTERRUPT),),
        min_data=1, timed_only=True)))
    for dev in b.data_column(0, irq).tolist():
        report.interrupts[dev] = report.interrupts.get(dev, 0) + 1
    return report


def format_io_report(report: IoReport, top: int = 8) -> str:
    """Render the per-process I/O table plus the slowest operations."""
    lines = [
        f"{len(report.ops)} I/O operations, "
        f"{sum(report.interrupts.values())} device interrupts, "
        f"{report.unmatched} unmatched",
        f"{'pid':>5} {'ops':>5} {'bytes':>10} {'mean us':>9} {'max us':>9}",
    ]
    for pid, (n, nbytes, mean, mx) in sorted(report.per_process().items()):
        lines.append(
            f"{pid:>5} {n:>5} {nbytes:>10,} {mean / CYCLES_PER_US:>9.1f} "
            f"{mx / CYCLES_PER_US:>9.1f}"
        )
    if report.ops:
        lines.append("slowest operations:")
        for op in report.slowest(top):
            lines.append(
                f"  pid {op.pid} {op.kind} fd{op.fd} {op.nbytes}B: "
                f"{op.latency / CYCLES_PER_US:.1f} us"
            )
    return "\n".join(lines)


def report(trace, sym, opts) -> str:
    """The ``iostats`` report: per-process I/O and ``opts.top`` slowest."""
    return format_io_report(io_statistics(trace), top=opts.top)
