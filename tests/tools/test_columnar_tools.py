"""Reference-vs-shipped equivalence for every column analysis tool.

Each tool computes its report from structure-of-arrays event columns;
these tests pin the contract that the report is identical to the
per-event walk in ``tests/tools/reference.py`` — on simulator
workloads where the report is non-empty, on corrupted streams, and when
the input is itself a ``ColumnarTrace``.

The damaged copies take their seeds from ``FAULT_FUZZ_SEEDS``
(comma-separated, default ``0,1,2``), like the fault matrix.
"""

import os
import random

import numpy as np
import pytest

from repro.core.columnar import ColumnarTraceReader, as_batch
from repro.core.facility import TraceFacility
from repro.core.faults import FaultInjector
from repro.core.registry import default_registry
from repro.core.stream import TraceReader
from repro.ksim import Acquire, Compute, Kernel, KernelConfig, Release
from repro.ksim.costs import DEFAULT_COSTS
from repro.ksim.ipc import FS_FUNCTION_NAMES
from repro.tools.breakdown import process_breakdown
from repro.tools.context import ColumnarContext
from repro.tools.deadlock import find_deadlocks
from repro.tools.holdtimes import format_hold_report, hold_times
from repro.tools.iostats import format_io_report, io_statistics
from repro.tools.kmon import Timeline
from repro.tools.listing import event_listing, format_listing
from repro.tools.lockstats import lock_statistics
from repro.tools.memprofile import format_memory_report, memory_profile
from repro.tools.pathstats import event_histogram, path_frequencies
from repro.tools.pcprofile import pc_profile, profile_pids
from repro.tools.schedstats import format_sched_report, sched_statistics
from repro.workloads import run_memstress
from repro.workloads.contention import alloc_storm
from tests.core.test_parallel import build_records
from tests.tools import reference

SEEDS = [int(s) for s in
         os.environ.get("FAULT_FUZZ_SEEDS", "0,1,2").split(",")]


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
def corrupt_records():
    records = build_records(n_events=900, ncpus=3)
    rng = random.Random(42)
    for rec in records:
        if rng.random() < 0.4 and rec.fill_words > 1:
            rec.words[rng.randrange(1, rec.fill_words)] = \
                np.uint64(rng.getrandbits(64))
    return records


@pytest.fixture(scope="module")
def corrupt_trace(corrupt_records):
    return TraceReader(registry=default_registry(),
                       strict=False).decode_records(corrupt_records)


# -- inputs on which each ported tool has something to say -----------------
def traced_run(make_programs, ncpus=2, max_cycles=10**8, **config):
    """Run the programs ``make_programs(kernel)`` returns (program ``i``
    on CPU ``i % ncpus``) on a kernel that traces every major; returns
    the kernel, the flushed buffer records and whether the run quiesced.

    The records are returned undecoded (``facility.decode()`` would
    flush, and so consume, them), so a test can decode them both ways
    or damage a copy first.
    """
    kernel = Kernel(KernelConfig(ncpus=ncpus, **config))
    fac = TraceFacility(ncpus=ncpus, clock=kernel.clock, buffer_words=2048,
                        num_buffers=16)
    fac.enable_all()
    kernel.facility = fac
    for i, program in enumerate(make_programs(kernel)):
        kernel.spawn_process(program, f"p{i}", cpu=i % ncpus)
    finished = kernel.run_until_quiescent(max_cycles=max_cycles)
    return kernel, fac.flush(), finished


def decode_both(records):
    """``records`` as the event-object ``Trace`` and as a ``ColumnarTrace``
    (both resynchronizing past damage)."""
    reg = default_registry()
    return (TraceReader(registry=reg).decode_records(records),
            ColumnarTraceReader(registry=reg).decode_records(records))


@pytest.fixture(scope="module")
def storm_records():
    """Allocator-lock storm with lock events on every path
    (``trace_all_lock_events``) and a short quantum: holds, a few of
    them preempted."""
    _kernel, records, finished = traced_run(
        lambda kernel: [alloc_storm(60, 96_000, 4_000) for _ in range(6)],
        seed=5, trace_all_lock_events=True, global_alloc_fraction=0.9,
        costs=DEFAULT_COSTS.with_overrides(quantum=50_000))
    assert finished
    return records


@pytest.fixture(scope="module")
def memstress_records():
    """Sampled hardware counters (§2's memory hot-spot study)."""
    _kernel, facility, _result = run_memstress(ncpus=2, bursts=8)
    return facility.flush()


@pytest.fixture(scope="module")
def io_records():
    """Device reads and writes, cached and not, with their interrupts."""
    def heavy(api):
        fd = yield from api.open("/data/big")
        for _ in range(3):
            yield from api.read(fd, 16_384, cached=False)
        yield from api.close(fd)

    def light(api):
        fd = yield from api.open("/data/small")
        yield from api.read(fd, 512, cached=True)
        yield from api.write(fd, 256)
        yield from api.close(fd)

    _kernel, records, finished = traced_run(lambda kernel: [heavy, light])
    assert finished
    return records


@pytest.fixture(scope="module")
def deadlock_records():
    """The ABBA deadlock (§4.2), lock events on every path."""
    def take_both(first, second):
        def program(api):
            yield Acquire(first, ())
            yield Compute(50_000)
            yield Acquire(second, ())
            yield Release(second)
            yield Release(first)
        return program

    def programs(kernel):
        a, b = kernel.create_lock("A"), kernel.create_lock("B")
        return [take_both(a, b), take_both(b, a)]

    _kernel, records, finished = traced_run(programs,
                                            trace_all_lock_events=True)
    assert not finished, "the scenario must actually deadlock"
    return records


#: tool -> (reference walk, shipped tool, input fixture, non-empty check,
#: rendering); the rendering pins what equality of the report types
#: would not (dict order).
PORTED = {
    "holds": (reference.hold_times, hold_times, "storm_records",
              lambda r: any(h.preempted for h in r.holds),
              format_hold_report),
    "memprofile": (reference.memory_profile, memory_profile,
                   "memstress_records", lambda r: r.total_l2 > 0,
                   format_memory_report),
    "iostats": (reference.io_statistics, io_statistics, "io_records",
                lambda r: r.ops and r.interrupts, format_io_report),
    "histogram": (reference.event_histogram, event_histogram,
                  "storm_records", bool, repr),
    "paths": (reference.path_frequencies, path_frequencies,
              "storm_records", bool, repr),
    "deadlock": (reference.find_deadlocks, find_deadlocks,
                 "deadlock_records", lambda r: r.deadlocked,
                 lambda r: (r.describe(), list(r.waiting_on))),
}


def assert_matches_reference(tool, trace, columnar):
    """The shipped tool on ``trace`` and on ``columnar`` (the same
    records) equals the reference walk on ``trace``; returns the report."""
    walk, shipped, _fixture, _nonempty, render = PORTED[tool]
    expected = walk(trace)
    for got in (shipped(trace), shipped(columnar)):
        assert got == expected
        assert render(got) == render(expected)
    return expected


class TestPortedTools:
    """The five tools that walked events until they were ported (holds,
    memprofile, iostats, histogram/paths, deadlock), each on an input
    that exercises it."""

    @pytest.mark.parametrize("tool", sorted(PORTED))
    def test_matches_reference(self, request, tool):
        records = request.getfixturevalue(PORTED[tool][2])
        report = assert_matches_reference(tool, *decode_both(records))
        assert PORTED[tool][3](report), f"{tool}: empty report"

    @pytest.mark.parametrize("seed", SEEDS)
    @pytest.mark.parametrize("tool", sorted(PORTED))
    def test_matches_reference_on_header_bitflip(self, request, tool, seed):
        records = request.getfixturevalue(PORTED[tool][2])
        damaged, _report = FaultInjector(seed).inject_records(
            records, "header-bitflip")
        trace, columnar = decode_both(damaged)
        assert trace.anomalies, (
            f"re-run: FAULT_FUZZ_SEEDS={seed} PYTHONPATH=src python -m "
            f"pytest tests/tools/test_columnar_tools.py -k bitflip")
        assert_matches_reference(tool, trace, columnar)

    def test_path_frequencies_of_one_cpu(self, storm_records):
        trace, columnar = decode_both(storm_records)
        expected = reference.path_frequencies(trace, cpu=1)
        assert expected
        assert path_frequencies(trace, cpu=1) == expected
        assert path_frequencies(columnar, cpu=1) == expected
        assert path_frequencies(columnar, cpu=7) == []

    def test_histogram_with_control_events(self, storm_records):
        trace, columnar = decode_both(storm_records)
        expected = reference.event_histogram(trace, include_control=True)
        assert expected != reference.event_histogram(trace)
        assert event_histogram(trace, include_control=True) == expected
        assert event_histogram(columnar, include_control=True) == expected


class TestContext:
    def test_columnar_context_matches_tracker(self, contention_trace):
        trace = contention_trace
        tracker = reference.ContextTracker(trace)
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

    @pytest.mark.parametrize("tool", sorted(PORTED))
    def test_ported_tool_on_corrupt_trace(self, corrupt_records, tool):
        assert_matches_reference(tool, *decode_both(corrupt_records))

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
