"""The ported tools' work follows the events they read, never the trace.

A time would say this only on a quiet machine; a count of Python-level
calls says it everywhere (the method of
``tests/core/test_decode_budget.py``).  Each tool that used to walk
event objects — the ``holds``, ``memprofile``, ``iostats`` and
``histogram`` reports, ``path_frequencies``, ``find_deadlocks``,
``verify_trace``, ``compare_traces`` and kmon's interactive ``info`` —
runs here on a ``ColumnarTrace`` under ``sys.setprofile`` and must

* build no :class:`~repro.core.stream.TraceEvent` at all, and
* cost the same number of calls, within :data:`SLACK`, when
  :data:`PADDING` events of a major it never reads are appended.
"""

import sys
from argparse import Namespace

import pytest

from repro.core.columnar import ColumnarTraceReader
from repro.core.facility import TraceFacility
from repro.core.majors import (
    ExcMinor,
    HwPerfMinor,
    IOMinor,
    LockMinor,
    Major,
    PcSampleMinor,
    ProcMinor,
)
from repro.core.registry import default_registry
from repro.core.stream import TraceEvent
from repro.core.timestamps import ManualClock
from repro.ksim.hwcounters import HwCounter
from repro.ksim.kernel import SymbolTable
from repro.tools import holdtimes, iostats, memprofile, pathstats
from repro.tools.anomaly import verify_trace
from repro.tools.compare import compare_traces
from repro.tools.deadlock import find_deadlocks
from repro.tools.kmon_session import KmonSession

#: Application events appended after the scripted run; no tool below
#: reads the APP major except to count it.
PADDING = 10_000
#: Calls the padding may add to one tool.  The histograms meet one more
#: event name and a few more event pairs (a name lookup and a counter
#: update each; ~30 calls measured); every other tool meets nothing new.
SLACK = 40
ROUNDS = 60

_INIT = TraceEvent.__init__.__code__


def scripted_records(padding):
    """Two CPUs doing everything the ported tools read — threads and
    switches, lock holds and contention, counter samples, I/O with its
    interrupts, PC samples — then ``padding`` APP events."""
    clock = ManualClock(start=1000)
    fac = TraceFacility(ncpus=2, buffer_words=1024, num_buffers=64,
                        clock=clock)
    fac.enable_all()

    def log(cpu, major, minor, *data):
        fac.log(cpu, major, minor, data)
        clock.advance(40)

    for cpu in range(2):
        thread = 0x1000 + cpu
        log(cpu, Major.PROC, ProcMinor.THREAD_CREATE, thread, 10 + cpu)
        log(cpu, Major.PROC, ProcMinor.CONTEXT_SWITCH, 0, thread)
    for i in range(ROUNDS):
        cpu = i % 2
        lock = 0x500 + i % 3
        log(cpu, Major.LOCK, LockMinor.CONTEND_START, lock, 7)
        log(cpu, Major.LOCK, LockMinor.CONTEND_END, lock, i)
        log(cpu, Major.HWPERF, HwPerfMinor.COUNTER_SAMPLE,
            HwCounter.L2_MISSES, 100 + i)
        log(cpu, Major.IO, IOMinor.READ_START, 10 + cpu, 3, 512)
        log(cpu, Major.EXC, ExcMinor.IO_INTERRUPT, 1)
        log(cpu, Major.IO, IOMinor.READ_DONE, 10 + cpu, 3)
        log(cpu, Major.PCSAMPLE, PcSampleMinor.SAMPLE, 10 + cpu, 0x400 + i)
        log(cpu, Major.LOCK, LockMinor.RELEASE, lock)
        if i % 10 == 9:
            log(cpu, Major.PROC, ProcMinor.CONTEXT_SWITCH, 0x1000 + cpu,
                0x1000 + cpu)
    for i in range(padding):
        fac.log(i % 2, Major.APP, 0, (i,))
        clock.advance(3)
    return fac.flush()


@pytest.fixture(scope="module")
def records():
    return {n: scripted_records(n) for n in (0, PADDING)}


def count_calls(fn):
    """(calls, TraceEvent constructions) made by ``fn()``."""
    calls = inits = 0

    def profiler(frame, event, _arg):
        nonlocal calls, inits
        if event in ("call", "c_call"):
            calls += 1
            if event == "call" and frame.f_code is _INIT:
                inits += 1

    sys.setprofile(profiler)
    try:
        fn()
    finally:
        sys.setprofile(None)
    return calls, inits


_SYM = SymbolTable()
_OPTS = Namespace(top=10)

TOOLS = {
    "holds": lambda t: holdtimes.report(t, _SYM, _OPTS),
    "memprofile": lambda t: memprofile.report(t, _SYM, _OPTS),
    "iostats": lambda t: iostats.report(t, _SYM, _OPTS),
    "histogram": lambda t: pathstats.report(t, _SYM, _OPTS),
    "path_frequencies": pathstats.path_frequencies,
    "find_deadlocks": find_deadlocks,
    "verify_trace": verify_trace,
    "compare_traces": lambda t: compare_traces(t, t),
    "kmon_info": lambda t: KmonSession(t).execute("info"),
}


def measure(tool, records):
    """(calls, TraceEvent constructions) of ``tool`` on a fresh decode
    of ``records``, after one warm-up run has paid for one-time imports
    and caches."""
    def decode():
        return ColumnarTraceReader(registry=default_registry()) \
            .decode_records(records)

    TOOLS[tool](decode())
    trace = decode()
    assert not trace.anomalies
    return count_calls(lambda: TOOLS[tool](trace))


@pytest.mark.parametrize("tool", sorted(TOOLS))
def test_tool_builds_no_event_objects(records, tool):
    _calls, inits = measure(tool, records[PADDING])
    assert inits == 0, f"{tool} built {inits} TraceEvent objects"


@pytest.mark.parametrize("tool", sorted(TOOLS))
def test_tool_calls_flat_in_unread_events(records, tool):
    base, _ = measure(tool, records[0])
    padded, _ = measure(tool, records[PADDING])
    assert abs(padded - base) <= SLACK, (tool, base, padded)


def test_script_exercises_every_tool(records):
    """The budget means something only if every report has rows."""
    trace = ColumnarTraceReader(registry=default_registry()) \
        .decode_records(records[0])
    assert holdtimes.hold_times(trace).holds
    assert memprofile.memory_profile(trace).total_l2
    report = iostats.io_statistics(trace)
    assert report.ops and report.interrupts
    assert pathstats.path_frequencies(trace)
    assert compare_traces(trace, trace).lock_deltas
