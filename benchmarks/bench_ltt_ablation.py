"""§4.1: the order-of-magnitude LTT improvement, ablated.

Paper result: applying K42's technology to the Linux Trace Toolkit —
lockless logging, per-processor buffers, more efficient timestamp
acquisition — yielded an order of magnitude performance improvement.

Two reproductions:

1. **Simulated machine (primary).**  Each configuration's per-event cost
   is expressed in the paper's own cycle vocabulary (91 + 11/word for
   the event write, ~1200 cycles for a gettimeofday-class timestamp,
   ~400 cycles for irq-disable + lock bookkeeping) and run on the
   discrete-event multiprocessor, where a shared buffer really
   serializes CPUs through one lock.  This preserves the era-relative
   ratios the paper measured.

2. **Real threads (secondary).**  The actual Python loggers hammered by
   one thread per CPU, with the locking/timestamp penalties calibrated
   as the same *multiples* of this implementation's base event cost.
   CPython's GIL prevents true parallel logging, so this measures the
   synchronization/timestamp ablation only; ratios are smaller but the
   ordering must match.
"""

import threading
import time

import pytest

from repro.core.majors import Major
from repro.ksim import Acquire, Compute, Kernel, KernelConfig, Release
from repro.ltt import LTT_CONFIGS, build_logger_set
from result_tables import write_result

NCPUS = 4

# Paper-era per-event cycle components.
EVENT_WRITE = 91 + 11          # 1 data word
CHEAP_TS = 10                  # synchronized timebase read
EXPENSIVE_TS = 1_200           # gettimeofday-class call
IRQ_AND_LOCK = 400             # irq disable/enable + lock bookkeeping


def config_event_cycles(config) -> int:
    cost = EVENT_WRITE
    cost += CHEAP_TS if config.cheap_timestamps else EXPENSIVE_TS
    if not config.lockless:
        cost += IRQ_AND_LOCK
    return cost


def simulate_config(config, ncpus=NCPUS, events_per_cpu=400) -> float:
    """Events per simulated second for one configuration."""
    kernel = Kernel(KernelConfig(ncpus=ncpus, migration=False))
    per_cpu_locks = [kernel.create_lock(f"trace_buf{c}") for c in range(ncpus)]
    shared_lock = kernel.create_lock("trace_buf_shared")
    cycles = config_event_cycles(config)

    def writer(cpu):
        def program(api):
            for _ in range(events_per_cpu):
                if config.lockless:
                    yield Compute(cycles, pc="traceLog")
                else:
                    lock = (per_cpu_locks[cpu] if config.per_cpu_buffers
                            else shared_lock)
                    yield Acquire(lock, ("ltt_log_event",))
                    yield Compute(cycles, pc="ltt_log_event")
                    yield Release(lock)
        return program

    for cpu in range(ncpus):
        kernel.spawn_process(writer(cpu), f"writer{cpu}", cpu=cpu)
    assert kernel.run_until_quiescent(10**12)
    seconds = kernel.engine.now / 1e9
    return ncpus * events_per_cpu / seconds


def hammer(config, per_thread=3_000, ncpus=NCPUS):
    """Real-thread aggregate events/sec (secondary measurement).

    Penalties calibrated against this implementation's ~µs-scale base
    event cost: the expensive timestamp and irq-disable spins are the
    same multiples of the base cost as their cycle counterparts above.
    """
    ls = build_logger_set(config, ncpus=ncpus, buffer_words=4096,
                          num_buffers=8, irq_disable_iters=400,
                          expensive_ts_iters=1_200)
    barrier = threading.Barrier(ncpus + 1)

    def work(cpu):
        logger = ls.loggers[cpu]
        barrier.wait()
        for i in range(per_thread):
            logger.log2(Major.TEST, 2, cpu, i)

    threads = [threading.Thread(target=work, args=(c,)) for c in range(ncpus)]
    for t in threads:
        t.start()
    barrier.wait()
    t0 = time.perf_counter()
    for t in threads:
        t.join()
    return ncpus * per_thread / (time.perf_counter() - t0)


@pytest.fixture(scope="module")
def simulated_rows():
    return [(c.name, simulate_config(c)) for c in LTT_CONFIGS]


@pytest.fixture(scope="module")
def wallclock_rows():
    return [(c.name, max(hammer(c, per_thread=2_000) for _ in range(3)))
            for c in LTT_CONFIGS]


def test_ltt_ablation_simulated(benchmark, simulated_rows):
    base = simulated_rows[0][1]
    lines = [f"LTT ablation on the simulated {NCPUS}-CPU machine "
             "(events per simulated second)",
             f"{'configuration':>14} {'events/sec':>16} {'vs original':>12}"]
    for name, rate in simulated_rows:
        lines.append(f"{name:>14} {rate:>16,.0f} {rate / base:>11.1f}x")
    k42 = simulated_rows[-1][1]
    lines.append("")
    lines.append(f"k42/original: {k42 / base:.1f}x "
                 "(paper: 'an order of magnitude')")
    write_result("ltt_ablation_simulated", "\n".join(lines))

    rates = [r for _, r in simulated_rows]
    assert rates == sorted(rates), "each factor must help"
    assert k42 / base >= 10, "the full stack must reach an order of magnitude"
    benchmark(lambda: simulate_config(LTT_CONFIGS[-1], events_per_cpu=100))


def test_ltt_ablation_wallclock(benchmark, wallclock_rows):
    base = wallclock_rows[0][1]
    lines = [f"LTT ablation with real Python threads ({NCPUS} threads; "
             "GIL limits parallel gains)",
             f"{'configuration':>14} {'events/sec':>14} {'vs original':>12}"]
    for name, rate in wallclock_rows:
        lines.append(f"{name:>14} {rate:>14,.0f} {rate / base:>11.1f}x")
    write_result("ltt_ablation_wallclock", "\n".join(lines))

    rows = dict(wallclock_rows)
    assert rows["k42"] == max(rows.values())
    assert rows["k42"] / rows["original"] >= 3.0
    benchmark(lambda: hammer(LTT_CONFIGS[-1], per_thread=300))


def test_shared_buffer_serializes_simulated_cpus(benchmark, simulated_rows):
    """Per-CPU buffers alone must help on the simulated machine, where
    CPUs genuinely run in parallel and a shared lock serializes them."""
    rows = dict(simulated_rows)
    assert rows["+percpu"] > rows["original"] * 1.5
    benchmark(lambda: simulate_config(LTT_CONFIGS[1], events_per_cpu=100))
