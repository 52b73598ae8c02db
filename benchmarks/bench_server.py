"""Server-style workload: worker scaling and queue-lock behaviour.

K42's OS services are multi-threaded server processes (Figure 8 lists
baseServers' thread entry points).  This bench runs the client/server
workload and measures the two relationships a server architect tunes
with exactly these traces:

* request latency vs worker count (queueing theory made visible);
* contention on the shared request-queue lock as workers multiply —
  the next Figure 7 entry once the allocator is fixed.
"""

import pytest

from result_tables import write_result
from repro.tools.lockstats import lock_statistics
from repro.workloads.server import run_server


@pytest.fixture(scope="module")
def worker_sweep():
    rows = []
    for nworkers in (1, 2, 4, 8):
        kernel, facility, result = run_server(
            ncpus=4, nworkers=nworkers, nclients=6,
            requests_per_client=8,
        )
        trace = facility.decode()
        queue_lock = next(l for l in kernel.locks
                          if l.name == "Server::requestQueue")
        rows.append((nworkers, result, queue_lock.contentions))
    return rows


def test_latency_falls_with_workers(benchmark, worker_sweep):
    lines = ["server worker sweep (6 clients x 8 requests, 4 CPUs)",
             f"{'workers':>8} {'mean latency us':>16} {'max us':>10} "
             f"{'elapsed us':>11} {'queue-lock contentions':>23}"]
    for nworkers, result, contentions in worker_sweep:
        lines.append(
            f"{nworkers:>8} {result.mean_latency / 1e3:>16.1f} "
            f"{result.max_latency / 1e3:>10.1f} "
            f"{result.elapsed_cycles / 1e3:>11.1f} {contentions:>23}"
        )
    write_result("server_worker_sweep", "\n".join(lines))
    lat = {n: r.mean_latency for n, r, _ in worker_sweep}
    assert lat[4] < lat[1], "more workers must cut queueing latency"
    done = {n: r.requests_completed for n, r, _ in worker_sweep}
    assert all(v == 48 for v in done.values())
    benchmark(lambda: run_server(ncpus=2, nworkers=2, nclients=2,
                                 requests_per_client=3))


def test_queue_lock_visible_in_fig7_view(benchmark, worker_sweep):
    """At high worker counts the request-queue lock shows up in the
    lock-analysis table — the §4 iteration's next target."""
    kernel, facility, result = run_server(
        ncpus=4, nworkers=8, nclients=6, requests_per_client=8,
    )
    trace = facility.decode()
    stats = lock_statistics(trace, group_by_pid=False)
    names = [kernel.symbols().lock_names.get(s.lock_id, "") for s in stats]
    assert any("requestQueue" in n for n in names)
    benchmark(lambda: lock_statistics(trace))
