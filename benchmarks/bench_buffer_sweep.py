"""Ablation: the alignment-boundary (buffer) size trade-off (§3.2).

The boundary size is the design's central dial.  Small buffers give
fine-grained random access (seek closer to the instant you want) but pay
more filler waste and more buffer-start bookkeeping; large buffers
amortize overheads but coarsen random access.  K42 chose "medium-scale"
boundaries (~128KB).  This sweep measures both sides of the trade so the
choice is visible in numbers, plus the commit-count on/off ablation the
design calls out (traceCommit is "optional" in Figure 2).
"""

import random
import time


from repro.core.buffers import TraceControl
from repro.core.logger import TraceLogger
from repro.core.majors import Major
from repro.core.mask import TraceMask
from repro.core.timestamps import ManualClock
from result_tables import write_result

N_EVENTS = 30_000


def fill(buffer_words, commit_counts=True, n_events=None):
    control = TraceControl(buffer_words=buffer_words,
                           num_buffers=max(4, 2**15 // buffer_words),
                           mode="flight")
    mask = TraceMask()
    mask.enable_all()
    clock = ManualClock()
    logger = TraceLogger(control, mask, clock, commit_counts=commit_counts)
    logger.start()
    rng = random.Random(99)
    sizes = [rng.randint(0, 4) for _ in range(512)]  # aperiodic mix
    payload = (1, 2, 3, 4)
    t0 = time.perf_counter()
    n = N_EVENTS if n_events is None else n_events
    for i in range(n):
        clock.advance(2)
        logger.log_words(Major.TEST, 1, payload[: sizes[i % 512]])
    wall = time.perf_counter() - t0
    return control, wall


def test_buffer_size_sweep(benchmark):
    rows = [
        "alignment-boundary size sweep "
        f"({N_EVENTS} variable-length events)",
        f"{'buffer words':>13} {'filler waste':>13} {'overhead words':>15} "
        f"{'ns/event':>9}",
    ]
    results = {}
    for bw in (64, 256, 1024, 4096, 16384):
        control, wall = fill(bw)
        stats_words = control.stats_words_logged
        waste = control.stats_filler_words / stats_words * 100
        # anchor/bookkeeping overhead: 4 words per buffer started
        anchors = control.stats_buffers_completed * 4
        results[bw] = waste
        rows.append(
            f"{bw:>13} {waste:>12.3f}% {anchors:>15} "
            f"{wall / N_EVENTS * 1e9:>9.0f}"
        )
    rows.append("")
    rows.append("smaller buffers -> finer random access but more waste;")
    rows.append("the curve is why K42 picked medium-scale boundaries")
    write_result("buffer_size_sweep", "\n".join(rows))
    # Waste must shrink monotonically-ish with buffer size.
    assert results[64] > results[16384]
    assert results[16384] < 0.1
    benchmark(lambda: fill(4096))


def test_commit_counts_ablation(benchmark):
    """traceCommit is optional (Figure 2); measure what it costs and
    what turning it off gives up (committed-count garble detection)."""
    t_on = t_off = 0.0
    for _ in range(3):
        _, w_on = fill(4096, commit_counts=True)
        _, w_off = fill(4096, commit_counts=False)
        t_on += w_on
        t_off += w_off
    overhead = (t_on - t_off) / t_off * 100
    write_result(
        "commit_counts_ablation",
        f"traceCommit on:  {t_on / 3 / N_EVENTS * 1e9:.0f} ns/event\n"
        f"traceCommit off: {t_off / 3 / N_EVENTS * 1e9:.0f} ns/event\n"
        f"overhead of the per-buffer counts: {overhead:+.1f}%\n"
        "(what you pay for §3.1's killed-writer detection)",
    )
    # The counts shouldn't dominate: well under 2x.
    assert t_on < t_off * 2
    benchmark(lambda: fill(4096, commit_counts=False))
