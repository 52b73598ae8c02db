"""Figure 7: lock-contention analysis.

Paper artifact: the top contended locks ranked by total wait time, with
count / spin / max-time / pid columns and the call chain per row; the
top entries are the allocator paths (AllocRegionManager::alloc via
GMalloc::gMalloc, PageAllocatorDefault::deallocPages via
AllocPool::largeFree/largeAlloc).  The tool sorts on any column.

Reproduction: the allocator-storm workload, analyzed purely from trace
events, must produce the same ranking vocabulary, with trace-derived
numbers matching the simulator's ground truth.
"""

import pytest

from result_tables import write_result
from repro.tools.lockstats import format_lockstats, lock_statistics
from repro.workloads import run_contention


@pytest.fixture(scope="module")
def contended_run():
    kernel, facility, result = run_contention(
        ncpus=8, workers_per_cpu=2, iterations=60,
        global_alloc_fraction=0.85, pc_sample_period=0,
    )
    return kernel, facility.decode(), result


def test_fig7_table(benchmark, contended_run):
    kernel, trace, result = contended_run
    sym = kernel.symbols()
    stats = lock_statistics(trace, sort_by="time")
    text = format_lockstats(stats, sym.lock_names, sym.chains, top=10)
    write_result("fig7_lockstats", text)

    assert "GMalloc::gMalloc()" in text
    assert "AllocRegionManager" in text
    top_names = [sym.lock_names.get(s.lock_id, "?") for s in stats[:3]]
    assert any("AllocRegionManager" in n or "PageAllocator" in n
               or "Dentry" in n for n in top_names), top_names
    benchmark(lambda: lock_statistics(trace, sort_by="time"))


def test_fig7_ground_truth_agreement(benchmark, contended_run):
    """Trace-derived totals equal the kernel's own lock counters."""
    kernel, trace, _ = contended_run
    stats = lock_statistics(trace, group_by_pid=False)
    derived = {}
    for s in stats:
        d = derived.setdefault(s.lock_id, [0, 0])
        d[0] += s.count
        d[1] += s.total_wait_cycles
    for lock in kernel.locks:
        got_count, got_wait = derived.get(lock.lock_id, (0, 0))
        assert got_count == lock.contentions, lock.name
        if lock.contentions:
            assert abs(got_wait - lock.total_wait_cycles) <= \
                0.05 * lock.total_wait_cycles
    benchmark(lambda: lock_statistics(trace, group_by_pid=False))


def test_fig7_sortable_on_all_columns(benchmark, contended_run):
    _, trace, _ = contended_run
    for column in ("time", "count", "spin", "max"):
        stats = lock_statistics(trace, sort_by=column)
        assert stats
    benchmark(lambda: lock_statistics(trace, sort_by="count"))
