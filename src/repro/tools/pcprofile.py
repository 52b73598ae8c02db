"""Statistical execution profiling — the Figure 6 tool (§4.5).

"An event that logs the program counter at random times is used to drive
statistical execution profiling.  Post-processing analysis maps the pc
values to C function names and provides a sorted histogram of the
routines that were statistically most active."

The simulator's :class:`~repro.ksim.SymbolTable` plays the role of the
symbol file ("mapped filename servers/baseServers/baseServers.dbg").
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.core.columnar import as_batch
from repro.core.majors import Major, PcSampleMinor
from repro.core.stream import Trace
from repro.store.query import Predicate, select
from repro.tools.context import _columnar_only


def pc_profile(
    trace: Trace,
    pc_names: Optional[Dict[int, str]] = None,
    pid: Optional[int] = None,
    columnar: bool = True,
) -> List[Tuple[int, str]]:
    """Sorted (count, function) histogram from PC-sample events.

    ``pid`` restricts to one process ("Breakdown of Time by Process");
    unknown pcs render as hex addresses, like an unsymbolized profile.
    The histogram is one mask plus a unique-count over the pc column.
    ``columnar`` selects nothing; ``False`` raises.
    """
    _columnar_only("pc_profile", columnar)
    b = as_batch(trace)
    if pid is not None and pid < 0:
        return []  # data words are unsigned; no sample can match
    sel = np.flatnonzero(select(b, Predicate(
        majors=(int(Major.PCSAMPLE),), minors=(int(PcSampleMinor.SAMPLE),),
        min_data=2)))
    if len(sel) == 0:
        return []
    if pid is not None:
        # The paper's sample event carries the sampled pid as payload
        # word 0 — a *payload* filter, distinct from the predicate
        # layer's executing-context pid.
        sel = sel[b.data_column(0, sel) == np.uint64(pid)]
        if len(sel) == 0:
            return []
    pcs, pc_counts = np.unique(b.data_column(1, sel), return_counts=True)
    counts: Dict[str, int] = {}
    lookup = (pc_names or {}).get
    for pc, c in zip(pcs.tolist(), pc_counts.tolist()):
        name = lookup(pc, f"{pc:#x}")
        counts[name] = counts.get(name, 0) + c
    return sorted(
        ((count, name) for name, count in counts.items()),
        key=lambda x: (-x[0], x[1]),
    )


def profile_pids(trace: Trace) -> List[int]:
    """The processes that have at least one PC sample."""
    b = as_batch(trace)
    sel = np.flatnonzero(select(b, Predicate(
        majors=(int(Major.PCSAMPLE),), min_data=2)))
    return np.unique(b.data_column(0, sel)).tolist()


def format_profile(
    histogram: List[Tuple[int, str]],
    pid: Optional[int] = None,
    mapped_filename: str = "",
    top: Optional[int] = None,
) -> str:
    """Render the Figure 6 layout."""
    lines = []
    if pid is not None:
        header = f"histogram for pid {pid:#x}"
        if mapped_filename:
            header += f" mapped filename {mapped_filename}"
        lines.append(header)
    lines.append(f"{'count':>8} method")
    for count, name in histogram[:top]:
        lines.append(f"{count:>8} {name}")
    return "\n".join(lines)


def report(trace, sym, opts) -> str:
    """The ``profile`` report: Figure 6, ``opts.top`` rows, ``opts.pid``.

    The one trace -> text entry, whatever the trace came from; a trace
    with no PC samples renders an empty histogram.
    """
    hist = pc_profile(trace, sym.pc_names, pid=opts.pid)
    return format_profile(hist, pid=opts.pid, top=opts.top)


def fleet_rollup(view, sym, opts) -> str:
    """The fleet-wide histogram under a merged view's per-node sections:
    sample counts summed across the fleet (symbol names resolve through
    the shared ``pc_names`` map)."""
    return report(view.rollup_trace(), sym, opts)
