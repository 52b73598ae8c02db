"""Figure 6: breakdown of time within a single process (PC profiling).

Paper artifact: a sorted histogram for pid 0x1 (baseServers) whose top
entry is ``FairBLock::_acquire()`` followed by hash-table, dispatcher,
allocation, and dentry functions — lock spinning dominating a contended
server.

Reproduction: PC-sampling on the contention workload; the per-pid
histogram for baseServers must be led by lock-acquire spinning or the
service functions, with the same vocabulary.
"""

import pytest

from result_tables import write_result
from repro.tools.pcprofile import format_profile, pc_profile
from repro.workloads import run_contention

FIGURE6_VOCAB = (
    "_acquire", "HashSNBBase", "DispatcherDefault_IPCalleeEntry",
    "MemDesc::alloc", "HashSimpleBase", "_wordcopy_fwd_aligned",
    "XHandleTrans::alloc", "DentryListHash::lookupPtr",
    "DirLinuxFS::externalLookupDirectory",
)


@pytest.fixture(scope="module")
def profiled_run():
    kernel, facility, result = run_contention(
        ncpus=8, workers_per_cpu=2, iterations=50,
        pc_sample_period=2_000, with_fs_pressure=True,
    )
    return kernel, facility.decode(), result


def test_fig6_server_histogram(benchmark, profiled_run):
    kernel, trace, _ = profiled_run
    sym = kernel.symbols()
    hist = pc_profile(trace, sym.pc_names, pid=1)
    assert hist, "baseServers must have samples (PPC moves execution there)"
    text = format_profile(
        hist, pid=1, mapped_filename="servers/baseServers/baseServers.dbg",
        top=12,
    )
    write_result("fig6_pcprofile", text)
    names = " ".join(n for _, n in hist)
    overlap = [v for v in FIGURE6_VOCAB if v in names]
    assert len(overlap) >= 3, f"Figure 6 vocabulary too sparse: {overlap}"
    benchmark(lambda: pc_profile(trace, sym.pc_names, pid=1))


def test_fig6_lock_spin_visible_under_contention(benchmark, profiled_run):
    """Under heavy contention, lock-acquire spinning must rank high in
    the whole-system profile, as in the paper's Figure 6."""
    kernel, trace, _ = profiled_run
    sym = kernel.symbols()
    hist = pc_profile(trace, sym.pc_names)
    top8 = [n for _, n in hist[:8]]
    assert any("_acquire" in n for n in top8), top8
    benchmark(lambda: pc_profile(trace, sym.pc_names))


def test_fig6_sample_count_tracks_period(benchmark):
    """Halving the sampling period roughly doubles the sample count —
    the statistical-profiling contract."""
    _, fac_fast, _ = run_contention(ncpus=2, workers_per_cpu=1,
                                    iterations=20, pc_sample_period=2_000)
    _, fac_slow, _ = run_contention(ncpus=2, workers_per_cpu=1,
                                    iterations=20, pc_sample_period=4_000)
    fast = len(pc_profile(fac_fast.decode()))
    n_fast = sum(c for c, _ in pc_profile(fac_fast.decode()))
    n_slow = sum(c for c, _ in pc_profile(fac_slow.decode()))
    assert 1.5 <= n_fast / n_slow <= 2.6
    benchmark(lambda: pc_profile(fac_fast.decode()))
