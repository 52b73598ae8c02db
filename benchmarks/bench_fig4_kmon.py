"""Figure 4: the kmon graphical viewing tool.

Paper artifact: a timeline giving a bird's-eye view of system activity,
zoomable, with selected events (TRACE_USER_RUN_ULoader /
TRACE_USER_RETURNED_MAIN) marked and counted, and a click producing the
Figure 5 listing around that instant.

Reproduction: render the same view (text + SVG) over an SDET trace and
verify each interaction: marked-event counts match process activity,
zoom narrows, the click listing returns events.
"""

import pytest

from result_tables import write_result
from repro.tools.kmon import Timeline
from repro.tools.listing import CYCLES_PER_SECOND
from repro.workloads import run_sdet


@pytest.fixture(scope="module")
def sdet_trace():
    kernel, facility, result = run_sdet(4, scripts_per_cpu=2,
                                        commands_per_script=4)
    return kernel, facility.decode(), result


def test_fig4_timeline_render(benchmark, sdet_trace):
    kernel, trace, result = sdet_trace
    tl = Timeline(trace).mark("TRC_USER_RUN_UL_LOADER",
                              "TRC_USER_RETURNED_MAIN")
    text = tl.render(width=100)
    counts = tl.marked_counts()

    # Every process creation logged one loader event; every exit one
    # returned-main — kmon's counters must agree with the kernel.
    created = sum(1 for p in kernel.processes.values() if p.pid >= 2)
    exited = sum(1 for p in kernel.processes.values()
                 if p.pid >= 2 and p.exited)
    assert counts["TRC_USER_RUN_UL_LOADER"] == created
    assert counts["TRC_USER_RETURNED_MAIN"] == exited

    # Zoom to the middle third; click in the middle for the listing.
    t0s, t1s = tl.t0 / CYCLES_PER_SECOND, tl.t1 / CYCLES_PER_SECOND
    zoomed = tl.zoom(t0s + (t1s - t0s) / 3, t0s + 2 * (t1s - t0s) / 3)
    click = zoomed.click_listing((t0s + t1s) / 2, window_seconds=5e-5)
    assert click

    svg = tl.render_svg()
    out = [text, "",
           f"marked counts: {counts}",
           f"zoomed window: {(zoomed.t1 - zoomed.t0) / 1e6:.3f}M cycles",
           "click listing sample:", *click.splitlines()[:5],
           f"SVG render: {len(svg)} bytes"]
    write_result("fig4_kmon", "\n".join(out))
    benchmark(lambda: Timeline(trace).render(width=100))


def test_fig4_svg_speed(benchmark, sdet_trace):
    _, trace, _ = sdet_trace
    tl = Timeline(trace).mark("TRC_USER_RETURNED_MAIN")
    svg = benchmark(tl.render_svg)
    assert svg.startswith("<svg")
