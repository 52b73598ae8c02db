"""Figure 8: fine-grained system behaviour (per-syscall/IPC breakdown).

Paper artifact: for one process, a table of syscalls with time, call
count, and event count; a parallel IPC column (SCexecve made 34 IPCs for
691 usecs); an "Ex-process" row for time spent elsewhere on its behalf;
and per-entry-point service times inside servers.

Reproduction: run an SDET script, produce the same table purely from
trace events, and cross-check call counts and IPC pairing against the
simulator's ground truth.
"""

import pytest

from repro.ksim.ipc import FS_FUNCTION_NAMES
from result_tables import write_result
from repro.tools.breakdown import format_breakdown, process_breakdown
from repro.workloads import run_sdet


@pytest.fixture(scope="module")
def breakdown_run():
    kernel, facility, _ = run_sdet(2, scripts_per_cpu=1,
                                   commands_per_script=4)
    trace = facility.decode()
    sym = kernel.symbols()
    bds = process_breakdown(trace, sym.syscall_names, sym.process_names,
                            FS_FUNCTION_NAMES)
    return kernel, trace, bds


def test_fig8_script_process_table(benchmark, breakdown_run):
    kernel, trace, bds = breakdown_run
    script_pid = next(p for p, b in bds.items()
                      if kernel.processes[p].name.startswith("sdet_script"))
    b = bds[script_pid]
    text = format_breakdown(b)
    write_result("fig8_breakdown_script", text)

    # The script forks/execs its commands and waits for them.
    assert "SCfork" in b.syscalls
    assert "SCexecve" in b.syscalls
    assert "SCwaitpid" in b.syscalls
    # SCexecve does IPC (image loading through the file server) — the
    # paper's "SCexecve made 34 IPCs" phenomenon.
    assert b.syscalls["SCexecve"].ipc_calls >= b.syscalls["SCexecve"].calls
    assert b.syscalls["SCexecve"].ipc_cycles > 0
    benchmark(lambda: process_breakdown(trace))


def test_fig8_server_entry_points(benchmark, breakdown_run):
    kernel, trace, bds = breakdown_run
    server = bds[1]
    text = format_breakdown(server)
    write_result("fig8_breakdown_server", text)
    assert server.server_functions, "baseServers must show entry points"
    total_calls = sum(c for c, _ in server.server_functions.values())
    assert total_calls == kernel.fileserver.calls
    benchmark(lambda: format_breakdown(server))


def test_fig8_command_syscall_counts_ground_truth(benchmark, breakdown_run):
    """Each command's open/read/write/close counts match its workload
    specification — the tool's numbers are exact, not approximate."""
    from repro.workloads.sdet import COMMANDS

    kernel, trace, bds = breakdown_run
    checked = 0
    for pid, b in bds.items():
        name = kernel.processes[pid].name
        cmd = name.split(".")[0]
        if cmd not in COMMANDS:
            continue
        _, reads, writes, _, _, _, opens = COMMANDS[cmd]
        if "SCopen" in b.syscalls:
            assert b.syscalls["SCopen"].calls == opens, name
            checked += 1
        if reads and opens and "SCread" in b.syscalls:
            assert b.syscalls["SCread"].calls == reads * opens, name
    assert checked >= 3
    benchmark(lambda: process_breakdown(trace))
