"""Code-path frequency statistics (§4.2).

"Other developers have used the tracing facility to obtain statistics
about the relative frequency of different paths taken through code" —
instead of one-off counters that get removed after the question is
answered, they logged cheap events and counted afterwards.  These
helpers are that counting step.
"""

from __future__ import annotations

from collections import Counter
from typing import List, Optional, Tuple

from repro.core.stream import Trace


def event_histogram(
    trace: Trace, include_control: bool = False
) -> List[Tuple[int, str]]:
    """(count, event name) sorted by frequency — which paths run most."""
    counts: Counter = Counter()
    for e in trace.all_events():
        if e.is_control and not include_control:
            continue
        counts[e.name] += 1
    return sorted(((c, n) for n, c in counts.items()), key=lambda x: (-x[0], x[1]))


def path_frequencies(
    trace: Trace, cpu: Optional[int] = None
) -> List[Tuple[int, Tuple[str, str]]]:
    """(count, (event A, event B)) bigrams of consecutive events per CPU.

    Consecutive-event transitions approximate control-flow edges: a
    frequent ``PGFLT -> PGFLT_DONE`` edge is the fast path; a frequent
    ``PGFLT -> CTX_SWITCH`` edge is the blocking path.
    """
    counts: Counter = Counter()
    cpus = [cpu] if cpu is not None else sorted(trace.events_by_cpu)
    for c in cpus:
        prev = None
        for e in trace.events(c):
            if e.is_control:
                continue
            if prev is not None:
                counts[(prev.name, e.name)] += 1
            prev = e
    return sorted(((n, pair) for pair, n in counts.items()),
                  key=lambda x: (-x[0], x[1]))


def relative_frequency(
    trace: Trace, numerator: str, denominator: str
) -> Optional[float]:
    """Ratio of two event counts (the 'how often does path A happen vs
    path B' question), or None when the denominator never fired."""
    hist = dict((name, count) for count, name in event_histogram(trace))
    denom = hist.get(denominator, 0)
    if denom == 0:
        return None
    return hist.get(numerator, 0) / denom


def report(trace, sym, opts) -> str:
    """The ``histogram`` report: the ``opts.top`` most frequent events."""
    return "\n".join(f"{count:>8} {name}"
                     for count, name in event_histogram(trace)[: opts.top])
