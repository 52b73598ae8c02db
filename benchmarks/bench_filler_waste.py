"""§3.2: variable-length events, fillers, and alignment waste.

Paper numbers: "30 to 40 percent of events end exactly on a buffer
boundary and because there are very few events larger than 4 64-bit
words, this alignment in practice wastes very little space."

Reproduction: run SDET, measure (a) the fraction of buffers closed
without needing a filler, (b) the fraction of trace memory spent on
filler words, and (c) the event-size distribution — verifying most
events are <= 4 words and waste is small.  Also the variable- vs
fixed-length space comparison that motivates the design.
"""

import pytest

from repro.core.stream import TraceReader
from result_tables import write_result
from repro.workloads import run_sdet


@pytest.fixture(scope="module")
def sdet_fill():
    kernel, facility, _ = run_sdet(4, scripts_per_cpu=2,
                                   commands_per_script=5,
                                   buffer_words=1024, num_buffers=16)
    records = facility.flush()
    reader = TraceReader(registry=facility.registry, include_fillers=True)
    trace = reader.decode_records(records)
    return kernel, facility, records, trace


def test_filler_waste_small(benchmark, sdet_fill):
    kernel, facility, records, trace = sdet_fill
    stats = facility.stats()
    completed = stats["buffers_completed"]
    fillers = stats["fillers"]
    filler_words = stats["filler_words"]
    total_words = stats["words_logged"]
    exact = completed - fillers
    exact_pct = 100.0 * exact / max(1, completed)
    waste_pct = 100.0 * filler_words / max(1, total_words)

    lines = [
        "filler/alignment accounting (SDET, 1024-word buffers)",
        f"buffers completed:          {completed}",
        f"closed by filler:           {fillers}",
        f"closed exactly on boundary: {exact} ({exact_pct:.1f}%)",
        f"filler words:               {filler_words} of {total_words} "
        f"({waste_pct:.2f}% waste)",
        "",
        "paper: 30-40% of buffers end exactly on the boundary; waste is",
        "very little because few events exceed 4 data words.",
    ]
    write_result("filler_waste", "\n".join(lines))
    assert waste_pct < 2.0, "alignment waste must be small"
    assert completed > 10
    benchmark(lambda: facility.stats())


def test_event_size_distribution(benchmark, sdet_fill):
    kernel, facility, records, trace = sdet_fill
    sizes = {}
    for e in trace.all_events():
        if e.is_filler:
            continue
        words = len(e.data) + 1
        sizes[words] = sizes.get(words, 0) + 1
    total = sum(sizes.values())
    small = sum(c for w, c in sizes.items() if w <= 5)  # header + 4 data
    lines = ["event size distribution (words incl. header)"]
    for w in sorted(sizes):
        lines.append(f"  {w:>2} words: {sizes[w]:>7} "
                     f"({100.0 * sizes[w] / total:.1f}%)")
    lines.append(f"events with <= 4 data words: {100.0 * small / total:.1f}% "
                 "(paper: 'very few events larger than 4 64-bit words')")
    write_result("event_sizes", "\n".join(lines))
    assert small / total > 0.9
    reader = TraceReader(registry=facility.registry)
    benchmark(lambda: reader.decode_records(records))


def test_variable_vs_fixed_length_space(benchmark, sdet_fill):
    """The §2 motivation: fixed-length slots sized for the largest event
    waste space and write volume that variable-length events avoid."""
    kernel, facility, records, trace = sdet_fill
    events = [e for e in trace.all_events() if not e.is_filler]
    variable_words = sum(len(e.data) + 1 for e in events)
    max_words = max(len(e.data) + 1 for e in events)
    fixed_words = len(events) * max_words
    ratio = fixed_words / max(1, variable_words)
    write_result(
        "variable_vs_fixed",
        f"variable-length stream: {variable_words} words\n"
        f"fixed-length stream (slot = largest event, {max_words} words): "
        f"{fixed_words} words\n"
        f"fixed/variable = {ratio:.2f}x more space and write volume",
    )
    assert ratio > 1.5
    benchmark(lambda: sum(len(e.data) for e in events))
