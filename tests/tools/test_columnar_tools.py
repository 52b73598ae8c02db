"""Reference-vs-shipped equivalence for every column analysis tool.

Each tool computes its report from structure-of-arrays event columns;
these tests pin the contract that the report is identical to the
per-event walk in ``tests/tools/reference.py`` — on simulator
workloads, on corrupted streams, and when the input is itself a
``ColumnarTrace``.
"""

import random

import numpy as np
import pytest

from repro.core.columnar import ColumnarTraceReader, as_batch
from repro.core.registry import default_registry
from repro.core.stream import TraceReader
from repro.ksim.ipc import FS_FUNCTION_NAMES
from repro.tools.breakdown import process_breakdown
from repro.tools.context import ColumnarContext, ContextTracker
from repro.tools.kmon import Timeline
from repro.tools.listing import event_listing, format_listing
from repro.tools.lockstats import lock_statistics
from repro.tools.pcprofile import pc_profile, profile_pids
from repro.tools.schedstats import format_sched_report, sched_statistics
from tests.core.test_parallel import build_records
from tests.tools import reference


def _listing_tuples(events):
    return [(e.cpu, e.seq, e.offset, e.ts32, e.major, e.minor,
             tuple(e.data), e.time) for e in events]


@pytest.fixture
def contention_trace(contention_run):
    _kernel, trace, _result = contention_run
    return trace


@pytest.fixture
def multiprog_trace(multiprog_run):
    _kernel, trace, _result = multiprog_run
    return trace


@pytest.fixture(scope="module")
def corrupt_trace():
    records = build_records(n_events=900, ncpus=3)
    rng = random.Random(42)
    for rec in records:
        if rng.random() < 0.4 and rec.fill_words > 1:
            rec.words[rng.randrange(1, rec.fill_words)] = \
                np.uint64(rng.getrandbits(64))
    return TraceReader(registry=default_registry(),
                       strict=False).decode_records(records)


class TestContext:
    def test_columnar_context_matches_tracker(self, contention_trace):
        trace = contention_trace
        tracker = ContextTracker(trace)
        b = as_batch(trace)
        ctx = ColumnarContext(b)
        events = trace.all_events()
        assert len(events) == len(b)
        pids = ctx.pid_list()
        for i, e in enumerate(events):
            assert tracker.thread_of(e) == ctx.thread[i]
            assert tracker.pid_of(e) == pids[i]


class TestToolEquivalence:
    def test_pc_profile(self, contention_trace):
        assert reference.pc_profile(contention_trace) == \
            pc_profile(contention_trace)
        pids = reference.profile_pids(contention_trace)
        assert pids == profile_pids(contention_trace)
        for pid in pids[:2] + [None, -1, 10 ** 9]:
            assert reference.pc_profile(contention_trace, pid=pid) == \
                pc_profile(contention_trace, pid=pid)

    @pytest.mark.parametrize("kw", [
        dict(),
        dict(include_control=True),
        dict(cpu=0),
        dict(limit=17),
        dict(start=1e-7, end=2e-6, limit=9),
        dict(names=["TRC_LOCK_CONTEND_START"]),
        dict(names=["nope"]),
    ], ids=lambda kw: ",".join(kw) or "plain")
    def test_event_listing(self, contention_trace, kw):
        assert _listing_tuples(
            reference.event_listing(contention_trace, **kw)
        ) == _listing_tuples(
            event_listing(contention_trace, **kw))

    @pytest.mark.parametrize("sort_by", ["time", "count", "spin", "max"])
    @pytest.mark.parametrize("group_by_pid", [True, False])
    def test_lock_statistics(self, contention_trace, sort_by, group_by_pid):
        assert reference.lock_statistics(
            contention_trace, sort_by=sort_by, group_by_pid=group_by_pid,
            collect_waits=True,
        ) == lock_statistics(
            contention_trace, sort_by=sort_by, group_by_pid=group_by_pid,
            collect_waits=True)

    def test_process_breakdown(self, multiprog_trace):
        assert reference.process_breakdown(multiprog_trace) == \
            process_breakdown(multiprog_trace)

    def test_sched_statistics(self, multiprog_trace):
        scalar = reference.sched_statistics(multiprog_trace)
        columnar = sched_statistics(multiprog_trace)
        assert scalar == columnar
        assert format_sched_report(scalar) == format_sched_report(columnar)

    def test_kmon_timeline(self, multiprog_trace):
        marks = ("TRC_PROC_CTX_SWITCH", "TRC_LOCK_CONTEND_START")
        ts = reference.Timeline(multiprog_trace).mark(*marks) \
            .show_processes()
        tc = Timeline(multiprog_trace).mark(*marks).show_processes()
        assert ts.render() == tc.render()
        assert ts.render_svg() == tc.render_svg()
        assert ts.marked_counts() == tc.marked_counts()
        assert ts.zoom(0, 1e-4).render() == tc.zoom(0, 1e-4).render()


class TestOnDamagedAndColumnarInputs:
    def test_all_tools_on_corrupt_trace(self, corrupt_trace):
        tr = corrupt_trace
        assert reference.pc_profile(tr) == pc_profile(tr)
        assert _listing_tuples(reference.event_listing(tr)) == \
            _listing_tuples(event_listing(tr))
        assert reference.lock_statistics(tr) == lock_statistics(tr)
        assert reference.process_breakdown(tr) == process_breakdown(tr)
        assert reference.sched_statistics(tr) == sched_statistics(tr)

    def test_tools_accept_columnar_trace(self, corrupt_trace):
        # The shipped tools on a ColumnarTrace input must produce the
        # reports the reference walks out of the event-object Trace.
        records = build_records(n_events=500, ncpus=2)
        scalar = TraceReader(registry=default_registry()) \
            .decode_records(records)
        columnar = ColumnarTraceReader(registry=default_registry()) \
            .decode_records(records)
        assert reference.sched_statistics(scalar) == \
            sched_statistics(columnar)
        assert reference.process_breakdown(scalar) == \
            process_breakdown(columnar)
        assert _listing_tuples(reference.event_listing(scalar)) == \
            _listing_tuples(event_listing(columnar))


class TestInertKeyword:
    """``benchmarks/pipeline`` (wl_postmortem.py, wl_store.py) passes
    ``columnar=True`` to six tools and tier-1 never imports it: make its
    calls here, spelled as it spells them, so a signature break fails
    in this suite and not only as failed benchmark operations."""

    def test_pinned_calls_equal_the_plain_calls(self, contention_run):
        kernel, trace, _result = contention_run
        sym = kernel.symbols()
        name = "TRC_LOCK_CONTEND_START"
        assert pc_profile(trace, sym.pc_names, pid=None, columnar=True) == \
            pc_profile(trace, sym.pc_names, pid=None)
        assert sched_statistics(trace, columnar=True) == \
            sched_statistics(trace)
        assert process_breakdown(trace, sym.syscall_names, sym.process_names,
                                 FS_FUNCTION_NAMES, columnar=True) == \
            process_breakdown(trace, sym.syscall_names, sym.process_names,
                              FS_FUNCTION_NAMES)
        assert Timeline(trace, columnar=True).render(width=96) == \
            Timeline(trace).render(width=96)
        selection = dict(names=[name], cpu=None, start=None, end=None,
                         limit=None, include_control=False)
        listing = format_listing(trace, columnar=True, **selection)
        assert listing and listing == format_listing(trace, **selection)
        assert lock_statistics(trace, sort_by="time", columnar=True) == \
            lock_statistics(trace, sort_by="time")

    @pytest.mark.parametrize("call", [
        pc_profile, sched_statistics, process_breakdown, Timeline,
        format_listing, lock_statistics,
    ], ids=lambda f: f.__name__)
    def test_columnar_false_raises(self, contention_trace, call):
        # Ignoring it would turn a leftover scalar-vs-columnar check
        # into columnar-vs-columnar.
        with pytest.raises(ValueError, match="columnar=False.*removed"):
            call(contention_trace, columnar=False)
