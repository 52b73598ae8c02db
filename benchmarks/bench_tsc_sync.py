"""§4.1: TSC interpolation for per-CPU clock synchronization.

Paper mechanism: on x86, LTT logs the cheap per-CPU tsc with each event
and takes one expensive gettimeofday at trace start and one at end;
interpolating between them puts all CPUs' events on a common axis.

Reproduction: per-CPU clocks with realistic offsets and ppm-level
frequency drift; measure cross-CPU skew raw vs interpolated, and verify
a multi-CPU event stream merges into correct global order only after
interpolation.
"""

import numpy as np
import pytest

from repro.core.clockmap import ClockMap, measured_skew
from repro.core.timestamps import DriftingTscClock
from result_tables import write_result

RUN_NS = 2 * 10**9  # a 2-second trace window
NCPUS = 4


@pytest.fixture(scope="module")
def drifting_setup():
    base = [0]
    clock = DriftingTscClock(
        offsets=[0, 1_500_000, 73_000_000, 9_999],
        rates=[1.0, 1.00021, 0.99979, 1.00005],   # ~200 ppm spread
        base=lambda: base[0],
    )
    cmap = ClockMap(range(NCPUS), clock.anchors(0, RUN_NS))
    return clock, base, cmap


def tsc_at(clock, cpu, t):
    return int(clock.offsets[cpu] + clock.rates[cpu] * t)


def readings(clock, points):
    """Every CPU's tsc at each true instant, index-aligned."""
    return {c: [tsc_at(clock, c, t) for t in points] for c in range(NCPUS)}


def test_tsc_sync_skew(benchmark, drifting_setup):
    clock, base, cmap = drifting_setup
    points = list(range(0, RUN_NS, RUN_NS // 50))
    raw_skews = []
    for t in points:
        vals = [tsc_at(clock, c, t) for c in range(NCPUS)]
        raw_skews.append(max(vals) - min(vals))
    corrected = measured_skew(cmap, readings(clock, points))
    lines = [
        "cross-CPU timestamp skew over a 2 s window",
        f"raw tsc skew:          {min(raw_skews):,} .. {max(raw_skews):,} ns",
        f"after interpolation:   <= {corrected} ns",
        "",
        "paper: two gettimeofday anchors + per-event tsc interpolation",
        "synchronize per-CPU buffers on x86.",
    ]
    write_result("tsc_sync", "\n".join(lines))
    assert max(raw_skews) > 100_000, "drift must be a real problem"
    assert corrected <= 4, "interpolation must reduce skew to rounding"
    assert corrected <= cmap.skew_bound(), "skew must stay within the bound"
    first = readings(clock, points[:10])
    benchmark(lambda: measured_skew(cmap, first))


def test_tsc_sync_restores_event_order(benchmark, drifting_setup):
    """Events generated in a known global order across CPUs must merge
    back into that order after interpolation — and generally not before.

    Checked twice: one scalar ``to_wall`` per event, and the column
    form — each CPU's tsc column re-based with ``rebase``, then one
    stable argsort of the merged wall times."""
    clock, base, cmap = drifting_setup
    true_order = []
    stamped = []
    t = 1000
    k = 0
    while t < RUN_NS:
        cpu = k % NCPUS
        stamped.append((cpu, tsc_at(clock, cpu, t), k))
        true_order.append(k)
        k += 1
        t += RUN_NS // 997

    raw_sorted = [i for _, _, i in sorted(stamped, key=lambda x: x[1])]
    assert raw_sorted != true_order, "raw tsc order must be scrambled"

    corrected = sorted(stamped, key=lambda x: cmap.to_wall(x[0], x[1]))
    assert [i for _, _, i in corrected] == true_order

    cpu = np.array([c for c, _, _ in stamped])
    tsc = np.array([v for _, v, _ in stamped], dtype=np.int64)
    timed = np.ones(len(tsc), dtype=bool)

    def rebased_order():
        wall = np.empty_like(tsc)
        for c in range(NCPUS):
            rows = cpu == c
            wall[rows] = cmap.rebase(c, tsc[rows], timed[rows])
        return np.argsort(wall, kind="stable")

    assert rebased_order().tolist() == true_order
    benchmark(rebased_order)
