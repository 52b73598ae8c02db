"""Textual event listing — the Figure 5 tool.

Takes a decoded trace and produces lines of the form::

    21.4747350 TRC_USER_RUN_UL_LOADER  process 6 created new process with id 7 name /shellServe

Column one is seconds (cycles at 1 GHz), column two the ``__TR`` event
name, column three the self-describing rendering (§4.4) — no tool-side
knowledge of any specific event is required.
"""

from __future__ import annotations

from typing import Iterable, List, Optional

import numpy as np

from repro.core.columnar import as_batch
from repro.core.stream import Trace, TraceEvent
from repro.store.query import CYCLES_PER_SECOND, Predicate, select
from repro.tools.context import _columnar_only

__all__ = ["CYCLES_PER_SECOND", "event_listing", "format_event",
           "format_listing", "report"]


def event_listing(
    trace: Trace,
    start: Optional[float] = None,
    end: Optional[float] = None,
    cpu: Optional[int] = None,
    names: Optional[Iterable[str]] = None,
    include_control: bool = False,
    limit: Optional[int] = None,
    columnar: bool = True,
) -> List[TraceEvent]:
    """Select events for listing, by time window / cpu / event names.

    Every criterion is a boolean mask over the merged event columns;
    only the selected rows are materialized as events.  ``columnar``
    selects nothing; ``False`` raises.
    """
    _columnar_only("event_listing", columnar)
    b = as_batch(trace)
    pred = Predicate(
        cpus=(int(cpu),) if cpu is not None else None,
        names=tuple(names) if names is not None else None,
        start_s=start,
        end_s=end,
        include_control=include_control,
    )
    sel = np.flatnonzero(select(b, pred))
    if limit is not None:
        sel = sel[:limit]
    return b.events(sel)


def format_event(event: TraceEvent, name_width: int = 28) -> str:
    t = (event.time or 0) / CYCLES_PER_SECOND
    return f"{t:12.7f} {event.name:<{name_width}} {event.render()}"


def format_listing(
    trace: Trace,
    name_width: int = 28,
    **selection,
) -> str:
    """The full Figure 5-style listing as one string."""
    events = event_listing(trace, **selection)
    return "\n".join(format_event(e, name_width) for e in events)


def report(trace, sym, opts) -> str:
    """The ``list`` report: the listing narrowed by ``opts``' selection."""
    return format_listing(
        trace,
        names=opts.name or None,
        cpu=opts.cpu,
        start=opts.start,
        end=opts.end,
        limit=opts.limit,
        include_control=opts.control,
    )
