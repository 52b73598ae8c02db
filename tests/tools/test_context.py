"""Context tests: the unified-facility attribution machinery."""

import numpy as np

from repro.core.columnar import EventBatch, as_batch
from repro.core.majors import Major
from repro.core.stream import Trace, TraceEvent
from repro.tools.context import ColumnarContext


def test_thread_pid_mapping_built(contention_run):
    kernel, trace, _ = contention_run
    ctx = ColumnarContext(as_batch(trace))
    assert ctx.thread_pid  # THREAD_CREATE events seen
    # Every mapped pid is a real process.
    for pid in set(ctx.thread_pid.values()):
        assert pid in kernel.processes


def test_syscall_events_attributed_to_their_process(contention_run):
    """SYSCALL events carry their pid in data[0]; the context columns
    must agree — cross-validating attribution against ground truth."""
    kernel, trace, _ = contention_run
    b = as_batch(trace)
    ctx = ColumnarContext(b)
    sel = np.flatnonzero(b.mask(major=Major.SYSCALL, min_data=2) & ctx.known)
    checked = len(sel)
    mismatched = int((ctx.pid[sel] != b.data_column(0, sel)).sum())
    assert checked > 50
    # Context switches and event logging are not atomic, so allow a
    # tiny attribution slop at switch boundaries.
    assert mismatched / checked < 0.02


def test_unknown_event_gets_default_context():
    # An empty batch has empty context columns ...
    ctx = ColumnarContext(EventBatch.empty())
    assert len(ctx.thread) == len(ctx.pid) == len(ctx.known) == 0
    assert ctx.thread_pid == {}
    # ... and an event logged before any context switch on its CPU runs
    # in no known thread: thread 0, pid unknown.
    orphan = TraceEvent(cpu=0, seq=0, offset=0, ts32=0, major=1, minor=0,
                        data=[], time=5)
    ctx = ColumnarContext(as_batch(Trace(events_by_cpu={0: [orphan]})))
    assert ctx.thread.tolist() == [0]
    assert ctx.pid_list() == [None]
