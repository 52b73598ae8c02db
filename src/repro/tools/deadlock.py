"""Deadlock detection from the trace — the §4.2 correctness-debugging use.

"A deadlock in the file system space was tracked down with the tracing
facility ... a trace file was produced and post-processed to detect
where the cycle had occurred."

Reconstruction: replay lock events to know, at end of trace, which
thread owns each lock (``ACQUIRE``/``CONTEND_END`` vs ``RELEASE``) and
which thread is still waiting on which lock (a ``CONTEND_START`` with no
matching ``CONTEND_END``).  Edges *waiter-thread → owner-thread* form the
wait-for graph; a cycle is a deadlock (networkx finds them).

Requires lock tracing on the uncontended paths too
(``KernelConfig.trace_all_lock_events=True``) so ownership of
never-contended locks is visible — the kind of extra detail one enables
while correctness debugging.
"""

from __future__ import annotations

from collections import defaultdict, deque
from dataclasses import dataclass, field
from typing import Dict, List, Optional

import networkx as nx
import numpy as np

from repro.core.columnar import as_batch
from repro.core.majors import LockMinor, Major
from repro.core.stream import Trace
from repro.store.query import Predicate, select
from repro.tools.context import ColumnarContext


@dataclass
class DeadlockReport:
    """The wait-for cycles found, with human-readable paths."""

    cycles: List[List[int]] = field(default_factory=list)  # thread addrs
    #: thread addr -> lock id it is waiting for
    waiting_on: Dict[int, int] = field(default_factory=dict)
    #: lock id -> owning thread addr at end of trace
    owners: Dict[int, int] = field(default_factory=dict)

    @property
    def deadlocked(self) -> bool:
        return bool(self.cycles)

    def describe(
        self,
        lock_names: Optional[Dict[int, str]] = None,
        thread_pids: Optional[Dict[int, int]] = None,
    ) -> str:
        if not self.cycles:
            return "no deadlock detected"
        lines = [f"{len(self.cycles)} deadlock cycle(s) detected"]
        for i, cycle in enumerate(self.cycles):
            parts = []
            for thread in cycle:
                lock = self.waiting_on.get(thread)
                lname = (lock_names or {}).get(lock, f"{lock:#x}" if lock else "?")
                pid = (thread_pids or {}).get(thread)
                who = f"thread {thread:#x}" + (f" (pid {pid})" if pid is not None else "")
                parts.append(f"{who} waits for {lname}")
            lines.append(f"  cycle {i}: " + " -> ".join(parts))
        return "\n".join(lines)


def find_deadlocks(trace: Trace) -> DeadlockReport:
    """Replay lock events and report wait-for cycles at trace end.

    The lock rows and their threads are mask-selected out of the event
    columns; the ownership replay runs over those rows only.
    """
    b = as_batch(trace)
    sel = np.flatnonzero(select(b, Predicate(
        majors=(int(Major.LOCK),), min_data=1)))
    owners: Dict[int, int] = {}            # lock -> thread addr
    waiting: Dict[int, int] = {}           # thread addr -> lock
    pending: Dict[int, deque] = defaultdict(deque)  # lock -> waiter threads

    for minor, lock_id, thread in zip(b.minor[sel].tolist(),
                                      b.data_column(0, sel).tolist(),
                                      ColumnarContext(b).thread[sel].tolist()):
        if minor == LockMinor.ACQUIRE:
            owners[lock_id] = thread
        elif minor == LockMinor.CONTEND_START:
            waiting[thread] = lock_id
            pending[lock_id].append(thread)
        elif minor == LockMinor.CONTEND_END:
            # FIFO grant: the longest waiter becomes the owner.
            if pending[lock_id]:
                waiter = pending[lock_id].popleft()
                waiting.pop(waiter, None)
                owners[lock_id] = waiter
            else:
                owners[lock_id] = thread
        elif minor == LockMinor.RELEASE:
            owners.pop(lock_id, None)

    graph = nx.DiGraph()
    for waiter, lock_id in waiting.items():
        owner = owners.get(lock_id)
        if owner is not None and owner != waiter:
            graph.add_edge(waiter, owner)
    cycles = [list(c) for c in nx.simple_cycles(graph)]
    return DeadlockReport(cycles=cycles, waiting_on=dict(waiting),
                          owners=dict(owners))
