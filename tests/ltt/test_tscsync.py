"""TSC interpolation tests (§4.1's x86 timestamp synchronization): the
one clock map keyed by CPU, anchored by a drifting tsc clock."""

import numpy as np
import pytest

from repro.core.clockmap import ClockAnchors, ClockMap, measured_skew
from repro.core.timestamps import DriftingTscClock


def make_clock():
    base = [0]
    clock = DriftingTscClock(
        offsets=[0, 123_456, 999_999],
        rates=[1.0, 1.0003, 0.9995],
        base=lambda: base[0],
    )
    return clock, base


def cpu_map(clock, base_start, base_end):
    return ClockMap(range(clock.ncpus), clock.anchors(base_start, base_end))


def tsc_at(clock, cpu, t):
    return int(clock.offsets[cpu] + clock.rates[cpu] * t)


def readings(clock, points):
    """Every CPU's tsc at each true instant, index-aligned."""
    return {cpu: [tsc_at(clock, cpu, t) for t in points]
            for cpu in range(clock.ncpus)}


def test_anchor_validation():
    with pytest.raises(ValueError):
        ClockAnchors(local_start=100, wall_start=0, local_end=100,
                     wall_end=10)
    with pytest.raises(ValueError, match="at least one stream"):
        ClockMap([], {})
    with pytest.raises(ValueError, match="unknown stream 3"):
        ClockMap([0], {3: ClockAnchors(0, 0, 10, 10)})


def test_interpolation_recovers_wall_time_exactly_at_anchors():
    clock, base = make_clock()
    anchors = clock.anchors(0, 10**9)
    cmap = ClockMap(range(clock.ncpus), anchors)
    for cpu in range(clock.ncpus):
        a = anchors[cpu]
        assert cmap.to_wall(cpu, a.local_start) == a.wall_start
        assert cmap.to_wall(cpu, a.local_end) == a.wall_end


def test_interpolation_midpoint_accuracy():
    clock, base = make_clock()
    cmap = cpu_map(clock, 0, 10**9)
    t = 5 * 10**8
    for cpu in range(clock.ncpus):
        # Within rounding of the true time despite offset+drift.
        assert abs(cmap.to_wall(cpu, tsc_at(clock, cpu, t)) - t) <= 2


def test_cross_cpu_skew_small_after_interpolation():
    clock, base = make_clock()
    cmap = cpu_map(clock, 0, 10**9)
    skew = measured_skew(
        cmap, readings(clock, [10**6 * k for k in range(0, 1000, 37)]))
    assert skew <= 4  # rounding only
    assert skew <= cmap.skew_bound()


class TestAnchorEdgeCases:
    """The degenerate anchor shapes the fleet merge layer leans on."""

    def test_single_cpu_anchors(self):
        """One CPU is a valid (if pointless) interpolation universe."""
        cmap = ClockMap([0], {0: ClockAnchors(100, 0, 1100, 1000)})
        assert cmap.streams == [0]
        assert cmap.to_wall(0, 600) == 500

    def test_skew_of_single_stream_is_zero(self):
        """A stream cannot disagree with itself."""
        clock = DriftingTscClock(offsets=[5_000], rates=[1.0007],
                                 base=lambda: 0)
        cmap = cpu_map(clock, 0, 10**6)
        assert measured_skew(cmap, readings(clock, range(0, 10**6, 997))) \
            == 0
        assert cmap.skew_bound() == 0

    def test_zero_tsc_span_raises(self):
        with pytest.raises(ValueError, match="end anchor"):
            ClockAnchors(local_start=100, wall_start=0,
                         local_end=100, wall_end=10)

    def test_negative_tsc_span_raises(self):
        with pytest.raises(ValueError, match="end anchor"):
            ClockAnchors(local_start=100, wall_start=0,
                         local_end=50, wall_end=10)

    def test_zero_wall_span_raises(self):
        # A zero wall span would build a silently-constant map; it
        # fails loudly like the tsc-span check.
        with pytest.raises(ValueError, match="wall anchors"):
            ClockAnchors(local_start=0, wall_start=10,
                         local_end=100, wall_end=10)

    def test_negative_wall_span_raises(self):
        with pytest.raises(ValueError, match="wall anchors"):
            ClockAnchors(local_start=0, wall_start=10,
                         local_end=100, wall_end=5)

    def test_extrapolation_outside_anchor_range(self):
        """Events before the first / after the last anchor still map
        linearly — a trace can hold events outside the gettimeofday
        bracket."""
        a = ClockAnchors(local_start=1000, wall_start=0,
                         local_end=3000, wall_end=1000)  # rate 0.5
        cmap = ClockMap([0], {0: a})
        assert cmap.to_wall(0, 0) == -500       # before the bracket
        assert cmap.to_wall(0, 5000) == 2000    # after it
        clock = DriftingTscClock(offsets=[123], rates=[1.01],
                                 base=lambda: 0)
        cmap = cpu_map(clock, 10**6, 2 * 10**6)
        for t in (0, 5 * 10**5, 3 * 10**6):
            assert abs(cmap.to_wall(0, tsc_at(clock, 0, t)) - t) <= 2


def test_uncorrected_skew_is_large():
    """Without interpolation, raw tsc values disagree wildly — the
    problem §4.1's scheme exists to solve."""
    clock, base = make_clock()
    t = 10**9
    raw = [tsc_at(clock, c, t) for c in range(3)]
    assert max(raw) - min(raw) > 100_000


def test_four_cpu_columns_rebase_into_true_order():
    """Four drifting CPUs: each CPU's tsc column re-bases row for row
    like the scalar map, and a cross-CPU interleave sorts into its true
    order after re-basing — and not before."""
    run = 2 * 10**9
    clock = DriftingTscClock(
        offsets=[0, 1_500_000, 73_000_000, 9_999],
        rates=[1.0, 1.00021, 0.99979, 1.00005],
        base=lambda: 0,
    )
    cmap = cpu_map(clock, 0, run)
    true_t = np.arange(997, dtype=np.int64) * (run // 997) + 1000
    cpu = np.arange(997) % clock.ncpus
    tsc = np.array([tsc_at(clock, c, t)
                    for c, t in zip(cpu.tolist(), true_t.tolist())],
                   dtype=np.int64)
    wall = np.zeros_like(tsc)
    for c in range(clock.ncpus):
        rows = cpu == c
        col = cmap.rebase(c, tsc[rows], np.ones(int(rows.sum()), dtype=bool))
        assert col.tolist() == [cmap.to_wall(c, v) for v in tsc[rows].tolist()]
        wall[rows] = col
    truth = np.arange(997)
    assert not np.array_equal(np.argsort(tsc, kind="stable"), truth)
    assert np.array_equal(np.argsort(wall, kind="stable"), truth)
