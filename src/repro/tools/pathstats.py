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

import numpy as np

from repro.core.columnar import EventBatch, as_batch
from repro.core.stream import Trace


def _name(b: EventBatch, key: int) -> str:
    return b.name_of(key >> 16, key & 0xFFFF)


def event_histogram(
    trace: Trace, include_control: bool = False
) -> List[Tuple[int, str]]:
    """(count, event name) sorted by frequency — which paths run most.

    One unique-count over the ``(major, minor)`` key column; names are
    resolved once per distinct key.
    """
    b = as_batch(trace)
    keys = b.keys() if include_control else b.keys()[~b.control_mask()]
    uniq, key_counts = np.unique(keys, return_counts=True)
    counts: Counter = Counter()
    for key, n in zip(uniq.tolist(), key_counts.tolist()):
        counts[_name(b, key)] += n
    return sorted(((c, n) for n, c in counts.items()), key=lambda x: (-x[0], x[1]))


def path_frequencies(
    trace: Trace, cpu: Optional[int] = None
) -> List[Tuple[int, Tuple[str, str]]]:
    """(count, (event A, event B)) bigrams of consecutive events per CPU.

    Consecutive-event transitions approximate control-flow edges: a
    frequent ``PGFLT -> PGFLT_DONE`` edge is the fast path; a frequent
    ``PGFLT -> CTX_SWITCH`` edge is the blocking path.  The bigrams are
    adjacent rows of the non-control events in decode order that share
    a CPU, counted with one unique-count over the pair codes.
    """
    b = as_batch(trace)
    order = b.order_by_stream()
    rows = order[~b.control_mask()[order]]
    if cpu is not None:
        rows = rows[b.cpu[rows] == cpu]
    cpus = b.cpu[rows]
    keys = b.keys()[rows]
    same = cpus[1:] == cpus[:-1]
    pairs = (keys[:-1][same] << np.int64(32)) | keys[1:][same]
    uniq, pair_counts = np.unique(pairs, return_counts=True)
    counts: Counter = Counter()
    for pair, n in zip(uniq.tolist(), pair_counts.tolist()):
        counts[(_name(b, pair >> 32), _name(b, pair & 0xFFFF_FFFF))] += n
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
