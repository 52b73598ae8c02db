"""§2: hardware counters integrated with the tracing infrastructure.

Paper claim: "the trace infrastructure may be used to study memory
bottlenecks, memory hot-spots, and other I/O interactions by logging
hardware counter events, e.g., cache-line misses.  Integrating the
hardware counter mechanism and the tracing infrastructure allows the
counters to be sampled and understood at various stages throughout the
programs or operating systems execution."

Reproduction: the memory-stress workload (one thrashing streamer among
cache-resident processes) with overflow-driven counter sampling into the
trace; the memory-profile tool must finger the thrasher from the trace
alone, the sampled totals must track the machine's ground truth, and
migration's cold-cache cost must be visible — the locality argument
behind K42's per-processor design.
"""

import pytest

from repro.ksim.hwcounters import HwCounter
from result_tables import write_result
from repro.tools.memprofile import format_memory_report, memory_profile
from repro.workloads import run_memstress


@pytest.fixture(scope="module")
def memstress():
    kernel, facility, result = run_memstress(ncpus=2, bursts=10)
    return kernel, facility.decode(), result


def test_hotspot_identified_from_trace(benchmark, memstress):
    kernel, trace, result = memstress
    report = memory_profile(trace, kernel.symbols().process_names)
    text = format_memory_report(report)
    write_result("hwperf_hotspots", text)
    top = report.hottest(1)[0]
    assert top.pid == result.thrasher_pid
    assert top.l2_misses > 0.6 * report.total_l2
    benchmark(lambda: memory_profile(trace))


def test_sampled_counters_track_ground_truth(benchmark, memstress):
    kernel, trace, result = memstress
    report = memory_profile(trace)
    ratio = report.total_l2 / max(1, result.l2_misses_total)
    write_result(
        "hwperf_ground_truth",
        f"machine counters: {result.l2_misses_total:,} L2 misses\n"
        f"trace-sampled:    {report.total_l2:,} "
        f"({100 * ratio:.1f}% captured; remainder below one overflow "
        "threshold per CPU)",
    )
    assert 0.9 <= ratio <= 1.0
    benchmark(lambda: memory_profile(trace))


def test_migration_cold_cache_cost(benchmark):
    """Pinned vs migrating: work stealing buys utilization at the price
    of cold-cache misses — the trade K42's locality emphasis is about.
    The counters make it measurable from the trace."""
    from repro.core.facility import TraceFacility
    from repro.ksim import Compute, Kernel, KernelConfig

    def run(migration: bool):
        kernel = Kernel(KernelConfig(
            ncpus=2, migration=migration, hw_overflow_threshold=2_000,
        ))
        fac = TraceFacility(ncpus=2, clock=kernel.clock,
                            buffer_words=4096, num_buffers=16)
        fac.enable_all()
        kernel.facility = fac

        def job(j):
            def prog(api):
                api.set_working_set(200)  # warm set worth keeping
                for _ in range(8):
                    yield Compute(100_000 + 37_000 * j, pc="user:hot_loop")
                    yield from api.sleep(20_000 + 11_000 * (j % 3))
            return prog

        # Pinned: jobs distributed once and kept there.  Migrating: all
        # start on CPU 0; staggered sleeps make work stealing bounce
        # threads between CPUs, going cache-cold on each move.
        for j in range(3):
            kernel.spawn_process(
                job(j), f"j{j}", cpu=(j % 2) if not migration else 0
            )
        assert kernel.run_until_quiescent()
        return (kernel.hw.totals()[HwCounter.L2_MISSES],
                kernel.hw.cold_bursts, kernel.engine.now)

    pinned_misses, pinned_bursts, pinned_elapsed = run(False)
    migr_misses, migr_bursts, migr_elapsed = run(True)
    write_result(
        "hwperf_migration_cost",
        "cold-cache cost of losing locality (3 jobs, 2 CPUs)\n"
        f"{'':>16} {'L2 misses':>10} {'cold bursts':>12} {'elapsed':>12}\n"
        f"{'pinned 1/CPU':>16} {pinned_misses:>10,} {pinned_bursts:>12} "
        f"{pinned_elapsed:>12,}\n"
        f"{'bouncing (steal)':>16} {migr_misses:>10,} {migr_bursts:>12} "
        f"{migr_elapsed:>12,}\n"
        "same throughput, more cache refills when threads lose their CPU —\n"
        "the locality K42's per-processor structures protect",
    )
    assert migr_bursts > pinned_bursts            # locality lost
    assert migr_misses > pinned_misses            # ...and it costs misses
    benchmark(lambda: run(True))
