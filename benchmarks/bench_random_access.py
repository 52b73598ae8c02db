"""§3.2: random access into a variable-length event stream.

Paper mechanism: events never cross medium-scale alignment boundaries,
so "trace analysis tools can skip to any of the alignment points in a
large trace and can begin interpreting events from that point" — the
middle 5 seconds of a multi-gigabyte trace without scanning it all.

Reproduction: build a large multi-buffer trace, then (a) verify decoding
from every alignment boundary yields exactly the sequential decode's
suffix, (b) measure the speedup of fetching a middle window via frame
seek vs scanning the whole file.
"""

import time

import numpy as np
import pytest

from repro.core.buffers import TraceControl
from repro.core.logger import TraceLogger
from repro.core.majors import Major
from repro.core.mask import TraceMask
from repro.core.registry import default_registry
from repro.core.stream import TraceReader, decode_from_offset, flat_records
from repro.core.timestamps import ManualClock
from result_tables import write_result

BW = 256


@pytest.fixture(scope="module")
def big_trace():
    control = TraceControl(buffer_words=BW, num_buffers=64)
    mask = TraceMask()
    mask.enable_all()
    clock = ManualClock()
    logger = TraceLogger(control, mask, clock, registry=default_registry())
    logger.start()
    rng = np.random.default_rng(11)
    for i in range(12_000):
        clock.advance(3)
        n = int(rng.integers(0, 5))
        logger.log_words(Major.TEST, 1, [i] * n)
    records = [r for r in control.flush() if not r.partial]
    flat = np.concatenate([r.words for r in records])
    return records, flat


def test_every_boundary_is_a_valid_entry_point(benchmark, big_trace):
    records, flat = big_trace
    reader = TraceReader(registry=default_registry(), check_committed=False)
    seq_events = reader.decode_records(flat_records(flat, BW)).events(0)
    n_buffers = len(flat) // BW
    for k in range(0, n_buffers, 7):
        sub = decode_from_offset(flat, BW, k * BW + 13,
                                 registry=default_registry())
        got = sub.events(0)
        expect = [e for e in seq_events if e.seq >= k]
        assert [(e.seq, e.offset, tuple(e.data)) for e in got] == \
            [(e.seq, e.offset, tuple(e.data)) for e in expect], f"boundary {k}"
    write_result(
        "random_access_correctness",
        f"{n_buffers} alignment boundaries in a "
        f"{len(flat) * 8 // 1024} KiB trace; decoding from every "
        "boundary reproduces the sequential suffix exactly",
    )
    benchmark(lambda: decode_from_offset(flat, BW, (n_buffers // 2) * BW,
                                         registry=default_registry()))


def test_seek_vs_scan_speed(benchmark, big_trace):
    """Fetching a middle window: boundary seek vs full sequential decode.

    Without the alignment guarantee, variable-length events force a
    reader to decode from the very beginning to find event boundaries;
    with it, the reader lands on the window's boundary directly.  This
    is the exact trade §3.2 resolves.
    """
    records, flat = big_trace
    n_buffers = len(flat) // BW
    window_start = (n_buffers // 2) * BW

    reader = TraceReader(registry=default_registry(), check_committed=False)

    def fetch_window_seek():
        chunk = flat[window_start : window_start + 3 * BW]
        recs = flat_records(chunk, BW, start_seq=n_buffers // 2)
        return reader.decode_records(recs).events(0)

    def fetch_window_scan():
        # No random access: decode the entire stream from offset 0.
        full = decode_from_offset(flat, BW, 0, registry=default_registry())
        return [e for e in full.events(0)
                if n_buffers // 2 <= e.seq < n_buffers // 2 + 3]

    t0 = time.perf_counter()
    for _ in range(5):
        a = fetch_window_seek()
    t_seek = time.perf_counter() - t0
    t0 = time.perf_counter()
    for _ in range(5):
        b = fetch_window_scan()
    t_scan = time.perf_counter() - t0

    assert [(e.seq, e.offset) for e in a] == [(e.seq, e.offset) for e in b]
    speedup = t_scan / t_seek
    write_result(
        "random_access_speed",
        f"fetch 3 middle buffers of {n_buffers}: "
        f"boundary seek {t_seek / 5 * 1e3:.2f} ms, "
        f"sequential scan {t_scan / 5 * 1e3:.2f} ms -> "
        f"{speedup:.1f}x speedup\n"
        "(grows with trace size; the paper's traces reached gigabytes "
        "per processor)",
    )
    assert speedup > 1.5
    benchmark(fetch_window_seek)
