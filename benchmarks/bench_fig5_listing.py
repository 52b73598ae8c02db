"""Figure 5: the trace-event listing tool.

Paper artifact: a textual dump — time in seconds, __TR event name,
self-describing rendering — covering memory, exception, and user events
from a real run (TRC_USER_RUN_UL_LOADER, TRC_EXCEPTION_PGFLT,
TRC_MEM_FCMCOM_ATCH_REG, TRC_EXCEPTION_PPC_CALL, ...).

Reproduction: generate the listing from an SDET trace and check the
same event vocabulary appears, rendered through the eventParse
registry with zero per-event tool knowledge; benchmark decode+format
throughput.
"""

import re

import pytest

from repro.core.stream import TraceReader
from result_tables import write_result
from repro.tools.listing import format_listing
from repro.workloads import run_sdet

FIGURE5_NAMES = [
    "TRC_USER_RUN_UL_LOADER",
    "TRC_EXCEPTION_PGFLT",
    "TRC_EXCEPTION_PGFLT_DONE",
    "TRC_MEM_FCMCOM_ATCH_REG",
    "TRC_MEM_FCMCRW_CREATE",
    "TRC_EXCEPTION_PPC_CALL",
    "TRC_EXCEPTION_PPC_RETURN",
    "TRC_MEM_REG_CREATE_FIX",
]


@pytest.fixture(scope="module")
def traced_run():
    kernel, facility, _ = run_sdet(2, scripts_per_cpu=2,
                                   commands_per_script=4)
    records = facility.flush()
    return kernel, facility, records


def test_fig5_listing_content(benchmark, traced_run):
    kernel, facility, records = traced_run
    reader = TraceReader(registry=facility.registry)
    trace = reader.decode_records(records)
    text = format_listing(trace)
    present = [n for n in FIGURE5_NAMES if n in text]
    missing = [n for n in FIGURE5_NAMES if n not in text]
    assert not missing, f"Figure 5 vocabulary missing: {missing}"
    for line in text.splitlines()[:200]:
        assert re.match(r"^\s*\d+\.\d{7} TRC_\w+\s+\S", line)
    sample = "\n".join(text.splitlines()[:25])
    write_result(
        "fig5_listing",
        sample + f"\n...\n({len(text.splitlines())} lines total; "
        f"all {len(FIGURE5_NAMES)} Figure 5 event kinds present)",
    )
    benchmark(lambda: format_listing(trace, limit=500))


def test_fig5_decode_throughput(benchmark, traced_run):
    """Events decoded per second from raw buffers (tool-side cost)."""
    kernel, facility, records = traced_run
    reader = TraceReader(registry=facility.registry)

    def decode():
        return reader.decode_records(records)

    trace = benchmark(decode)
    assert len(trace.all_events()) > 1000
