"""Fresh-seed property suite for clock alignment (randomized).

Every node gets an independently random clock — offset, drift rate,
and bounded integer jitter, exactly the model
:meth:`repro.core.clockmap.ClockMap.skew_bound` derives its bound
for — and the suite asserts the three alignment contracts:

* re-basing never reorders a stream (round-trip monotonicity),
* the *measured* residual cross-node skew never exceeds the reported
  bound, and
* the merged unified view is bit-identical under any permutation of
  node ingest order.

The per-CPU leg runs the first two on §4.1's use of the same map:
streams keyed by CPU within one node, each a random drifting tsc of a
:class:`~repro.core.timestamps.DriftingTscClock`, anchored by its
``anchors`` method.

Seeds come from ``FLEET_FUZZ_SEEDS`` (comma-separated, default
``0,1,2``) so CI can roll fresh ones per push; every assertion message
echoes the seed for exact re-runs.
"""

import math
import os
import random

import numpy as np
import pytest

from repro.core.clockmap import ClockAnchors, ClockMap, measured_skew
from repro.core.columnar import ColumnarTraceReader
from repro.core.facility import TraceFacility
from repro.core.registry import default_registry
from repro.core.timestamps import DriftingTscClock, ManualClock
from repro.fleet import NodeSource, merge_traces

SEEDS = [int(s) for s in
         os.environ.get("FLEET_FUZZ_SEEDS", "0,1,2").split(",")]


def _why(seed):
    return (f"re-run: FLEET_FUZZ_SEEDS={seed} PYTHONPATH=src "
            f"python -m pytest tests/fleet/test_alignment_properties.py")


class ModelClock:
    """``local(t) = floor(a + b*t) + e`` with ``|e| <= jitter``.

    Reads must come at non-decreasing true times; the monotone clamp
    (a hardware counter never runs backwards) keeps the error within
    the jitter band because the noiseless floor is itself
    non-decreasing.
    """

    def __init__(self, rng, offset, drift, jitter):
        self.rng = rng
        self.offset = offset
        self.drift = drift
        self.jitter = jitter
        self._last = None

    def read(self, t):
        val = (math.floor(self.offset + self.drift * t)
               + self.rng.randint(-self.jitter, self.jitter))
        if self._last is not None:
            val = max(val, self._last)
        self._last = val
        return val


def _random_fleet(seed):
    """Anchored node map + index-aligned readings for a random fleet."""
    rng = random.Random(seed)
    nnodes = rng.randint(2, 5)
    wall_end = rng.randrange(10**6, 10**8)
    sample_ts = sorted(rng.sample(range(1, wall_end), 200))
    anchors, jitters, readings = {}, {}, {}
    for node in range(nnodes):
        clock = ModelClock(
            rng,
            offset=rng.randrange(0, 10**12),
            drift=rng.uniform(0.95, 1.05),
            jitter=rng.randint(0, 3),
        )
        local_start = clock.read(0)
        readings[node] = [clock.read(t) for t in sample_ts]
        local_end = clock.read(wall_end)
        anchors[node] = ClockAnchors(
            local_start=local_start, wall_start=0,
            local_end=local_end, wall_end=wall_end,
        )
        jitters[node] = clock.jitter
    return ClockMap(range(nnodes), anchors), jitters, readings


def _random_cpus(seed):
    """Anchored CPU map + index-aligned tsc readings for one random
    node: offset and ppm-level drift per CPU, no jitter (a tsc read is
    exact; only its integer truncation counts)."""
    rng = random.Random(seed)
    ncpus = rng.randint(2, 8)
    wall_end = rng.randrange(10**6, 10**10)
    sample_ts = sorted(rng.sample(range(1, wall_end), 200))
    base = [0]
    clock = DriftingTscClock(
        offsets=[rng.randrange(0, 10**12) for _ in range(ncpus)],
        rates=[rng.uniform(0.9995, 1.0005) for _ in range(ncpus)],
        base=lambda: base[0],
    )
    readings = {cpu: [] for cpu in range(ncpus)}
    for t in sample_ts:
        base[0] = t
        for cpu in range(ncpus):
            readings[cpu].append(clock.now(cpu))
    cmap = ClockMap(range(ncpus), clock.anchors(0, wall_end))
    return cmap, {cpu: 0 for cpu in range(ncpus)}, readings


def _assert_rebase_monotone(cmap, readings, seed, key):
    for stream, vals in readings.items():
        t = np.array(vals, dtype=np.int64)
        rb = cmap.rebase(stream, t, np.ones(len(t), dtype=bool))
        assert np.all(np.diff(rb) >= 0), \
            f"{key} {stream} stream reordered after rebase; {_why(seed)}"
        # The vectorized path must agree with the exact scalar map.
        scalar = [cmap.to_wall(stream, v) for v in vals]
        assert rb.tolist() == scalar, (
            f"vectorized rebase != scalar map on {key} {stream}; "
            f"{_why(seed)}")


def _assert_skew_within_bound(cmap, jitters, readings, seed):
    bound = cmap.skew_bound(jitter=jitters)
    measured = measured_skew(cmap, readings)
    assert measured <= bound, (
        f"measured residual skew {measured} exceeds reported bound "
        f"{bound} (jitters {jitters}); {_why(seed)}")


@pytest.mark.parametrize("seed", SEEDS)
def test_rebase_is_monotone_per_stream(seed):
    cmap, _jitters, readings = _random_fleet(seed)
    _assert_rebase_monotone(cmap, readings, seed, "node")


@pytest.mark.parametrize("seed", SEEDS)
def test_measured_skew_within_reported_bound(seed):
    _assert_skew_within_bound(*_random_fleet(seed), seed)


@pytest.mark.parametrize("seed", SEEDS)
def test_cpu_rebase_is_monotone_per_stream(seed):
    cmap, _jitters, readings = _random_cpus(seed)
    _assert_rebase_monotone(cmap, readings, seed, "cpu")


@pytest.mark.parametrize("seed", SEEDS)
def test_cpu_skew_within_reported_bound(seed):
    _assert_skew_within_bound(*_random_cpus(seed), seed)


def _node_records(seed, offset, ncpus=2):
    """One node's trace records on its own local timebase."""
    rng = random.Random(seed)
    clock = ManualClock(start=offset)
    fac = TraceFacility(ncpus=ncpus, buffer_words=128, num_buffers=8,
                        clock=clock)
    fac.enable_all()
    for i in range(rng.randint(80, 160)):
        fac.log(i % ncpus, 2 + (i % 6), i % 16, [i, i * 3][: i % 3])
        clock.advance(rng.randint(1, 9))
    return fac.flush(), clock.now(0)


@pytest.mark.parametrize("seed", SEEDS)
def test_merged_view_invariant_under_ingest_permutation(seed):
    rng = random.Random(seed)
    reg = default_registry()
    sources = []
    for node in range(rng.randint(2, 4)):
        offset = rng.randrange(10**6, 10**10)
        records, local_end = _node_records(seed * 100 + node, offset)
        trace = ColumnarTraceReader(registry=reg).decode_records(records)
        span = local_end - offset + rng.randint(10, 100)
        wall_start = rng.randrange(0, 10**6)
        sources.append(NodeSource(
            node=node, trace=trace,
            anchors=ClockAnchors(
                local_start=offset, wall_start=wall_start,
                local_end=offset + span,
                wall_end=wall_start
                + max(1, round(span * rng.uniform(0.97, 1.03))),
            )))
    ref = merge_traces(sources, registry=reg).batch()
    ref_arrays = ref.to_arrays()
    assert "node" in ref_arrays, _why(seed)
    for trial in range(4):
        shuffled = sources[:]
        rng.shuffle(shuffled)
        got = merge_traces(shuffled, registry=reg).batch().to_arrays()
        assert sorted(got) == sorted(ref_arrays), _why(seed)
        for key in ref_arrays:
            assert np.array_equal(got[key], ref_arrays[key]), (
                f"column {key!r} differs from reference view under "
                f"ingest permutation {trial}; {_why(seed)}")


@pytest.mark.parametrize("seed", SEEDS)
def test_unified_view_keeps_per_stream_order(seed):
    """In the merged batch, each (node, cpu) stream stays in seq order
    and its fleet times are non-decreasing."""
    rng = random.Random(seed)
    reg = default_registry()
    sources = []
    for node in range(rng.randint(2, 3)):
        offset = rng.randrange(10**6, 10**9)
        records, local_end = _node_records(seed * 7 + node, offset)
        trace = ColumnarTraceReader(registry=reg).decode_records(records)
        span = local_end - offset + 50
        sources.append(NodeSource(
            node=node, trace=trace,
            anchors=ClockAnchors(offset, 0, offset + span,
                                 max(1, round(span
                                              * rng.uniform(0.97, 1.03))))))
    b = merge_traces(sources, registry=reg).batch()
    node_col = b.node_column()
    for node in np.unique(node_col).tolist():
        for cpu in np.unique(b.cpu[node_col == node]).tolist():
            rows = np.flatnonzero((node_col == node) & (b.cpu == cpu))
            stream_pos = b.seq[rows] * (1 << 32) + b.offset[rows]
            assert np.all(np.diff(stream_pos) > 0), (
                f"stream (node {node}, cpu {cpu}) left seq order in the "
                f"unified view; {_why(seed)}")
            t = b.time[rows][b.timed[rows]]
            assert np.all(np.diff(t) >= 0), (
                f"stream (node {node}, cpu {cpu}) times went backwards "
                f"in the unified view; {_why(seed)}")
