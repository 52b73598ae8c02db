"""Lock-contention analysis — the Figure 7 tool (§4.6).

Reconstructs, purely from trace events, the table that "played a crucial
role in helping us detect when a particular lock is generating
contention": per contended lock instance, the total wait time, the
contention count, the spin count, the maximum wait, the PID, and the
call chain that led to the acquisition.

Pairing: ``CONTEND_START``/``CONTEND_END`` are matched FIFO per lock —
the kernel's FairBLock grants in FIFO order, so the *n*-th start pairs
with the *n*-th end.  PIDs come from the scheduling events via
:class:`~repro.tools.context.ColumnarContext` (the unified-facility
advantage of §2).
"""

from __future__ import annotations

from collections import defaultdict, deque
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.core.columnar import as_batch
from repro.core.majors import LockMinor, Major
from repro.core.stream import Trace
from repro.store.query import CYCLES_PER_SECOND, Predicate, select
from repro.tools.context import ColumnarContext, _columnar_only


@dataclass
class LockStats:
    """Aggregated contention data for one (lock, call chain, pid) group."""

    lock_id: int
    chain_id: int
    pid: Optional[int]
    total_wait_cycles: int = 0
    count: int = 0
    spins: int = 0
    max_wait_cycles: int = 0
    unmatched_starts: int = 0
    #: individual wait times, kept when collect_waits=True
    waits: list = field(default_factory=list)

    @property
    def total_wait_seconds(self) -> float:
        return self.total_wait_cycles / CYCLES_PER_SECOND

    @property
    def max_wait_seconds(self) -> float:
        return self.max_wait_cycles / CYCLES_PER_SECOND

    @property
    def mean_wait_cycles(self) -> float:
        return self.total_wait_cycles / self.count if self.count else 0.0

    def percentile_cycles(self, q: float) -> float:
        """Wait-time percentile (requires collect_waits=True).

        Contended waits are usually bimodal — short spin-grants vs
        block-and-wake — so the median/p99 spread matters when deciding
        whether to raise the spin threshold or restructure the lock.
        """
        if not self.waits:
            raise ValueError("waits were not collected; pass collect_waits=True")
        import numpy as np

        return float(np.percentile(self.waits, q))


SORT_KEYS = {
    "time": lambda s: s.total_wait_cycles,
    "count": lambda s: s.count,
    "spin": lambda s: s.spins,
    "max": lambda s: s.max_wait_cycles,
}


def lock_statistics(
    trace: Trace,
    sort_by: str = "time",
    group_by_pid: bool = True,
    collect_waits: bool = False,
    columnar: bool = True,
) -> List[LockStats]:
    """Aggregate contention events into the Figure 7 table rows.

    ``sort_by`` is any of 'time', 'count', 'spin', 'max' — "the tool
    will sort on any of these columns".

    The FIFO pairing is inherently sequential, so the contention events
    and their pids are mask-selected out of the event columns first and
    the Python loop runs only over actual CONTEND rows, not the whole
    trace.  ``columnar`` selects nothing; ``False`` raises.
    """
    _columnar_only("lock_statistics", columnar)
    if sort_by not in SORT_KEYS:
        raise ValueError(f"sort_by must be one of {sorted(SORT_KEYS)}")
    b = as_batch(trace)
    ctx = ColumnarContext(b)
    start_minor = int(LockMinor.CONTEND_START)
    end_minor = int(LockMinor.CONTEND_END)
    sel = np.flatnonzero(select(b, Predicate(
        majors=(int(Major.LOCK),), minors=(start_minor, end_minor),
        min_data=2)))

    minors = b.minor[sel].tolist()
    d0 = b.data_column(0, sel).tolist()
    d1 = b.data_column(1, sel).tolist()
    tv = [t if f else 0
          for t, f in zip(b.time[sel].tolist(), b.timed[sel].tolist())]
    pid_k = ctx.known[sel].tolist()
    pid_v = ctx.pid[sel].tolist()

    # FIFO pending starts per lock: (start_time, chain_id, pid)
    pending: Dict[int, deque] = defaultdict(deque)
    groups: Dict[Tuple[int, int, Optional[int]], LockStats] = {}

    def group(lock_id: int, chain_id: int, pid: Optional[int]) -> LockStats:
        key = (lock_id, chain_id, pid if group_by_pid else None)
        st = groups.get(key)
        if st is None:
            st = LockStats(lock_id, chain_id, key[2])
            groups[key] = st
        return st

    for i in range(len(sel)):
        lock_id = d0[i]
        if minors[i] == start_minor:
            pending[lock_id].append(
                (tv[i], d1[i], pid_v[i] if pid_k[i] else None))
        else:
            if pending[lock_id]:
                t0, chain_id, pid = pending[lock_id].popleft()
                wait = max(0, tv[i] - t0)
                st = group(lock_id, chain_id, pid)
                st.count += 1
                st.spins += d1[i]
                st.total_wait_cycles += wait
                st.max_wait_cycles = max(st.max_wait_cycles, wait)
                if collect_waits:
                    st.waits.append(wait)

    for lock_id, dq in pending.items():
        for _t0, chain_id, pid in dq:
            st = group(lock_id, chain_id, pid)
            st.unmatched_starts += 1

    return sorted(groups.values(), key=SORT_KEYS[sort_by], reverse=True)


def format_lockstats(
    stats: List[LockStats],
    lock_names: Optional[Dict[int, str]] = None,
    chains: Optional[Dict[int, Tuple[str, ...]]] = None,
    top: int = 10,
    sort_label: str = "time",
) -> str:
    """Render the Figure 7 layout."""
    lines = [
        f"top {top} contended locks by {sort_label} - "
        "for full list see traceLockStatsTime",
        f"{'time':>12} {'count':>7} {'spin':>11} {'max time':>12}  pid",
        "call chain",
        "",
    ]
    for st in stats[:top]:
        pid = f"{st.pid:#x}" if st.pid is not None else "?"
        lines.append(
            f"{st.total_wait_seconds:12.9f} {st.count:>7} {st.spins:>11} "
            f"{st.max_wait_seconds:12.9f}  {pid}"
        )
        name = (lock_names or {}).get(st.lock_id)
        if name:
            lines.append(f"  lock: {name}")
        for frame in (chains or {}).get(st.chain_id, ()):
            lines.append(f"{frame}")
        lines.append("")
    return "\n".join(lines)


def report(trace, sym, opts) -> str:
    """The ``locks`` report: Figure 7, ``opts.top`` rows by ``opts.sort``.

    The one trace -> text entry, whatever the trace came from; a trace
    with no contention events renders an empty table.
    """
    stats = lock_statistics(trace, sort_by=opts.sort)
    return format_lockstats(stats, sym.lock_names, sym.chains,
                            top=opts.top, sort_label=opts.sort)


def fleet_rollup(view, sym, opts) -> str:
    """The fleet-wide table under a merged view's per-node sections.

    Ranks (node, lock) groups fleet-wide *without* merging lock ids
    across nodes — lock id 3 on node 0 and lock id 3 on node 1 are
    different locks, so cross-node FIFO pairing would be wrong; rows
    keep their node id instead.
    """
    rows = []
    for node in view.nodes:
        stats = lock_statistics(view.node_trace(node), sort_by=opts.sort)
        rows.extend((node, st) for st in stats)
    rows.sort(key=lambda p: SORT_KEYS[opts.sort](p[1]), reverse=True)
    lines = [
        f"top {opts.top} contended locks fleet-wide by {opts.sort} "
        "(per-node lock namespaces)",
        f"{'node':>4} {'time':>12} {'count':>7} {'spin':>11} "
        f"{'max time':>12}  pid",
    ]
    for node, st in rows[:opts.top]:
        pid = f"{st.pid:#x}" if st.pid is not None else "?"
        lines.append(
            f"{node:>4} {st.total_wait_seconds:12.9f} {st.count:>7} "
            f"{st.spins:>11} {st.max_wait_seconds:12.9f}  {pid}")
        name = sym.lock_names.get(st.lock_id)
        if name:
            lines.append(f"  lock: {name}")
    return "\n".join(lines)
