"""§4.2: correctness debugging — deadlock found by trace post-processing.

Paper anecdote: a file-system deadlock was tracked down by producing a
trace file and post-processing it to detect where the cycle had
occurred; printf would have been too clumsy and would have masked the
bug by changing the timing.

Reproduction: an ABBA deadlock between two simulated file-system
services; the wait-for cycle is recovered purely from the trace.  The
"printf masks the bug" point is reproduced too: adding a large printf
delay to one path changes the interleaving so the deadlock no longer
manifests — while the always-on cheap tracing caught it.
"""


from repro.core.facility import TraceFacility
from repro.ksim import Acquire, Compute, Kernel, KernelConfig, Release
from result_tables import write_result
from repro.tools.deadlock import find_deadlocks

PRINTF_COST = 500_000  # cycles: console output is enormous vs tracing


def build_kernel():
    kernel = Kernel(KernelConfig(ncpus=2, trace_all_lock_events=True))
    facility = TraceFacility(ncpus=2, clock=kernel.clock,
                             buffer_words=1024, num_buffers=8)
    facility.enable_all()
    kernel.facility = facility
    return kernel, facility


def run_scenario(printf_instrumented: bool):
    kernel, facility = build_kernel()
    dentry = kernel.create_lock("DentryListHash")
    inode = kernel.create_lock("InodeTable")

    def rename_path(api):
        if printf_instrumented:
            # The developer added a printf at the top of the handler; it
            # stalls this path so long that unlink completes before
            # rename takes any lock — the race window closes.
            yield Compute(PRINTF_COST, pc="printf")
        yield Acquire(dentry, ("DirLinuxFS::rename",))
        yield Compute(40_000, pc="DirLinuxFS::rename")
        yield Acquire(inode, ("DirLinuxFS::rename",))
        yield Release(inode)
        yield Release(dentry)

    def unlink_path(api):
        yield Compute(10_000, pc="user_delay")
        yield Acquire(inode, ("DirLinuxFS::unlink",))
        yield Compute(40_000, pc="DirLinuxFS::unlink")
        yield Acquire(dentry, ("DirLinuxFS::unlink",))
        yield Release(dentry)
        yield Release(inode)

    kernel.spawn_process(rename_path, "renameService", cpu=0)
    kernel.spawn_process(unlink_path, "unlinkService", cpu=1)
    finished = kernel.run_until_quiescent(max_cycles=10**8)
    return kernel, facility, finished


def test_deadlock_found_from_trace(benchmark):
    kernel, facility, finished = run_scenario(printf_instrumented=False)
    assert not finished, "the scenario must deadlock"
    trace = facility.decode()
    report = find_deadlocks(trace)
    assert report.deadlocked
    desc = report.describe(lock_names=kernel.symbols().lock_names)
    write_result("deadlock_detection", desc)
    assert "DentryListHash" in desc and "InodeTable" in desc
    benchmark(lambda: find_deadlocks(trace))


def test_printf_masks_the_deadlock(benchmark):
    """The same system 'debugged' with printf runs to completion — the
    Heisenbug effect the paper warns about; low-overhead tracing is the
    reason the real bug stayed observable."""
    kernel, facility, finished = run_scenario(printf_instrumented=True)
    write_result(
        "deadlock_printf_masking",
        f"with a printf on the rename path: run quiesced = {finished}\n"
        "the timing change hides the deadlock, exactly as §4.2 warns",
    )
    assert finished, "printf delay must perturb the race away"
    trace = facility.decode()
    assert not find_deadlocks(trace).deadlocked
    benchmark(lambda: find_deadlocks(trace))
