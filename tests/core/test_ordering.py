"""Row orders of an event batch, against the ``np.lexsort`` reference.

``order_by_stream`` is ``(cpu, seq, offset)`` — with ``node`` first on a
fleet batch — and ``order_by_time`` is ``(time | -1, ...)`` followed by
the stream key.  The batch computes them as one stable sort by time over
the stream order, and takes the identity as the stream order when one
column test shows the rows are already strictly in it.  These tests hold
both orders to the reference lexsort on seeded batches of every shape a
tool can hand them, and count the sorts ``as_batch`` may spend.
"""

from collections import Counter

import numpy as np
import pytest

from repro.core.columnar import (
    ColumnarTrace,
    EventBatch,
    as_batch,
    decode_records_columnar,
)
from repro.core.registry import default_registry
from tests.core.test_parallel import build_records

SEEDS = range(12)


def reference_stream(b):
    keys = [b.offset, b.seq, b.cpu]
    if b.node is not None:
        keys.append(b.node)
    return np.lexsort(keys)


def reference_time(b):
    tk = b.time_key()
    rest = [b.node] if b.node is not None else []
    if tk.dtype == object:
        cols = [tk.tolist(), *(c.tolist() for c in rest),
                b.cpu.tolist(), b.seq.tolist(), b.offset.tolist()]
        return np.array(sorted(range(len(b)),
                               key=lambda i: tuple(c[i] for c in cols)),
                        dtype=np.int64)
    return np.lexsort([b.offset, b.seq, b.cpu, *rest, tk])


def random_batch(rng, n, *, ncpus=3, stream_ordered=False, node=False,
                 big_times=False, untimed=0.2):
    """``n`` rows over few CPUs, sequences and times, so keys tie often.

    ``stream_ordered`` rows are strictly increasing in the stream key, as
    a decode hands them over; otherwise rows repeat keys (duplicate
    sequences) and arrive in any order.
    """
    cpu = rng.integers(0, ncpus, n)
    seq = rng.integers(0, 4, n)
    offset = rng.integers(0, 16, n)
    nodes = rng.integers(0, 2, n) if node else None
    if stream_ordered:
        keys = [offset, seq, cpu] + ([nodes] if node else [])
        order = np.lexsort(keys)
        stacked = np.stack([k[order] for k in keys])
        keep = np.ones(n, dtype=bool)
        keep[1:] = np.any(stacked[:, 1:] != stacked[:, :-1], axis=0)
        order = order[keep]
        cpu, seq, offset = cpu[order], seq[order], offset[order]
        nodes = nodes[order] if node else None
    m = len(cpu)
    time = rng.integers(0, 8, m).astype(np.int64) * 1000
    if big_times:
        time = np.array([int(t) + (1 << 64) for t in time.tolist()],
                        dtype=object)
    timed = rng.random(m) >= untimed
    time[~timed] = 0
    z = np.zeros(m, dtype=np.int64)
    return EventBatch(
        words=np.zeros(1, dtype=np.uint64), base=z.copy(), cpu=cpu,
        seq=seq, offset=offset, ts32=z.copy(), major=z.copy(),
        minor=z.copy(), length=z + 1, dlen=z.copy(), time=time,
        timed=timed, node=nodes)


def assert_orders(b):
    assert np.array_equal(b.order_by_stream(), reference_stream(b))
    assert np.array_equal(b.order_by_time(), reference_time(b))


@pytest.mark.parametrize("n", [0, 1, 2])
def test_tiny_batches(n):
    assert_orders(random_batch(np.random.default_rng(n), n))
    assert_orders(random_batch(np.random.default_rng(n), n,
                               stream_ordered=True))


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("shape", [
    dict(stream_ordered=True),
    dict(),                                   # duplicate seqs, any order
    dict(untimed=1.0),
    dict(node=True),
    dict(node=True, stream_ordered=True),
    dict(big_times=True),
    dict(big_times=True, node=True, stream_ordered=True),
])
def test_orders_match_lexsort(seed, shape):
    rng = np.random.default_rng(seed)
    b = random_batch(rng, int(rng.integers(20, 400)), **shape)
    assert_orders(b)
    assert b._ordered == shape.get("stream_ordered", False)


@pytest.mark.parametrize("seed", SEEDS)
def test_selected_slices_match_lexsort(seed):
    """A ``select()`` result is tested afresh: a mask keeps stream order,
    a permutation breaks it."""
    rng = np.random.default_rng(seed)
    b = random_batch(rng, 300, stream_ordered=True)
    b.order_by_stream()
    assert_orders(b.select(rng.random(len(b)) < 0.5))
    assert_orders(b.select(rng.permutation(len(b))[: len(b) // 2]))


@pytest.mark.parametrize("seed", SEEDS)
def test_merged_batch_matches_lexsort(seed):
    """The merge of per-CPU batches is the reference time order of their
    concatenation, and its handed-down stream order is the reference
    stream order of the merged rows — also after a selection."""
    rng = np.random.default_rng(seed)
    whole = random_batch(rng, 500, ncpus=4, stream_ordered=True)
    per_cpu = {c: whole.select(whole.cpu == c) for c in range(4)}
    merged = ColumnarTrace(per_cpu).batch()
    cat = EventBatch.concat([per_cpu[c] for c in range(4)])
    ref = reference_time(cat)
    for name in ("cpu", "seq", "offset", "time", "timed"):
        assert np.array_equal(getattr(merged, name),
                              getattr(cat, name)[ref]), name
    assert_orders(merged)
    assert_orders(merged.select(rng.random(len(merged)) < 0.3))


def test_decoded_trace_merges_to_the_lexsort_order():
    trace = decode_records_columnar(build_records(ncpus=4),
                                    registry=default_registry())
    merged = as_batch(trace)
    cat = EventBatch.concat([trace.batches_by_cpu[c] for c in trace.cpus])
    ref = reference_time(cat)
    assert np.array_equal(merged.offset, cat.offset[ref])
    assert np.array_equal(merged.cpu, cat.cpu[ref])
    assert_orders(merged)


def test_stream_order_is_read_only():
    b = random_batch(np.random.default_rng(0), 50)
    with pytest.raises(ValueError):
        b.order_by_stream()[0] = 1


@pytest.fixture
def sorts(monkeypatch):
    """Calls of the numpy sorts, by name."""
    calls = Counter()
    for name in ("lexsort", "argsort", "sort"):
        real = getattr(np, name)

        def counted(*a, _real=real, _name=name, **kw):
            calls[_name] += 1
            return _real(*a, **kw)

        monkeypatch.setattr(np, name, counted)
    return calls


def test_as_batch_sort_budget(sorts):
    """A stream-ordered K-CPU decode merges with one stable argsort and
    no lexsort; tools asking the merged batch for its stream order then
    sort nothing."""
    trace = decode_records_columnar(build_records(ncpus=4),
                                    registry=default_registry())
    assert trace.ncpus == 4 and not sorts
    merged = as_batch(trace)
    assert sorts == Counter(argsort=1)
    sorts.clear()
    merged.order_by_stream()
    assert not sorts
