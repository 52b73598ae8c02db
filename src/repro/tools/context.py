"""Reconstructing execution context from scheduling events.

The paper's §2 anecdote is the argument for a *unified* facility: because
scheduling events share the stream with lock events, the tools could see
context switches between a lock's acquire and release.  This module is
that capability: it replays each CPU's ``TRC_PROC_CTX_SWITCH`` events to
know which thread (and therefore process) any event belongs to — the
trace-only equivalent of "current" in the kernel — as columns aligned
with an :class:`~repro.core.columnar.EventBatch`.  The per-event replay
it reproduces is the tests' reference (``tests/tools/reference.py``).
"""

from __future__ import annotations

from typing import Dict, List, Optional

import numpy as np

from repro.core.columnar import EventBatch
from repro.core.majors import Major, ProcMinor


def _columnar_only(tool: str, columnar: bool) -> None:
    """Refuse ``columnar=False`` on a tool that no longer has a scalar walk.

    The six column tools keep ``columnar`` only because
    ``benchmarks/pipeline`` spells ``columnar=True``; the keyword selects
    nothing.  ``False`` raises instead of being ignored so that a
    leftover scalar-vs-columnar comparison fails loudly rather than
    comparing the one implementation with itself.
    """
    if not columnar:
        raise ValueError(
            f"{tool}(columnar=False) was removed: the column implementation "
            "is the only one (the per-event walk is the tests' reference, "
            "tests/tools/reference.py)")


class ColumnarContext:
    """Column-aligned context for an :class:`EventBatch`.

    Three columns aligned with the batch's rows: ``thread`` (address, 0
    unknown), ``pid``, and ``known`` (whether a pid mapping exists; where
    False the pid is unknown, ``None`` in a report).

    The replay is vectorized: context-switch targets are scattered into
    a value column and forward-filled per CPU in stream (decode) order
    with ``np.maximum.accumulate`` over setter positions, reproducing
    the scalar per-CPU walk — including the rule that the switch event
    itself already belongs to the *new* thread.
    """

    def __init__(self, batch: EventBatch) -> None:
        n = len(batch)
        self.thread = np.zeros(n, dtype=np.uint64)
        self.pid = np.zeros(n, dtype=np.uint64)
        self.known = np.zeros(n, dtype=bool)
        #: thread addr -> pid, from TRC_PROC_THR_CREATE events.
        self.thread_pid: Dict[int, int] = {}
        if n == 0:
            return

        # Stream (decode) order: the order each CPU's switches happened.
        order = batch.order_by_stream()

        # Pass 1: thread->process mapping, last write wins in stream
        # order (same as the scalar per-CPU iteration).
        tc = batch.mask(major=int(Major.PROC),
                        minor=int(ProcMinor.THREAD_CREATE), min_data=2)
        tc_idx = order[tc[order]]
        if len(tc_idx):
            for t, p in zip(batch.data_column(0, tc_idx).tolist(),
                            batch.data_column(1, tc_idx).tolist()):
                self.thread_pid[t] = p

        # Pass 2: per-CPU forward fill of switch targets.
        sw_mask = batch.mask(major=int(Major.PROC),
                             minor=int(ProcMinor.CONTEXT_SWITCH), min_data=2)
        sw = sw_mask[order]
        vals = np.zeros(n, dtype=np.uint64)
        if sw.any():
            vals[sw] = batch.data_column(1, order[sw])
        cpu_sorted = batch.cpu[order]
        is_start = np.ones(n, dtype=bool)
        is_start[1:] = cpu_sorted[1:] != cpu_sorted[:-1]
        # A CPU's first event resets "current" to 0 unless it is itself
        # a switch; vals is already 0 at plain starts.
        setter = sw | is_start
        pos = np.arange(n, dtype=np.int64)
        last_set = np.maximum.accumulate(np.where(setter, pos, 0))
        current = vals[last_set]

        # Map threads to pids once per distinct thread, not per event.
        uniq, inv = np.unique(current, return_inverse=True)
        pid_u = np.zeros(len(uniq), dtype=np.uint64)
        known_u = np.zeros(len(uniq), dtype=bool)
        for i, t in enumerate(uniq.tolist()):
            p = self.thread_pid.get(t)
            if p is not None:
                pid_u[i] = p
                known_u[i] = True

        self.thread[order] = current
        self.pid[order] = pid_u[inv]
        self.known[order] = known_u[inv]

    def pid_list(self) -> List[Optional[int]]:
        """Per-row pids as Python values (``None`` where unknown)."""
        return [p if k else None
                for p, k in zip(self.pid.tolist(), self.known.tolist())]
