"""The report tools as data: one table, read by every CLI surface.

The paper's tools are generic because ``eventParse`` describes events as
data; this is the same move one level up.  A row of :data:`REPORTS` is
everything the CLI knows about a tool — the post-mortem subcommand of
that name and, for the ``fleet`` rows, ``follow --tool``, ``merge
--tool`` and ``fleet-run --tool`` are all generated from it — so a tool
is declared once and its four surfaces cannot drift apart.  A live
window, a replay or a fleet node is only another *source* of the trace
a row's one ``report`` reads.
"""

from __future__ import annotations

from importlib import import_module
from typing import Any, Callable, Dict, List, NamedTuple, Tuple

#: One ``add_argument`` call as data: ``(flags, keywords)``.
Option = Tuple[Tuple[str, ...], Dict[str, Any]]


def opt(*flags: str, **kw: Any) -> Option:
    return flags, kw


class Report(NamedTuple):
    """One row of :data:`REPORTS`.

    ``repro.tools.<module>`` holds ``report(trace, sym, opts) -> str``,
    the tool's one trace -> text composition, and — for a ``fleet`` row
    — ``fleet_rollup(view, sym, opts) -> str``, the section that goes
    under the per-node reports.  ``sym`` is the ``--symbols`` table
    (empty without the flag), ``opts`` the parsed command line, of which
    an entry reads the ``options`` its row declares.  ``store`` rows
    take ``--store``.  The module is imported when a run needs it
    (:func:`entry`), so building the parser imports no tool.
    """

    help: str
    module: str
    options: Tuple[Option, ...] = ()
    store: bool = False
    fleet: bool = False


_SYMBOLS = opt("--symbols")
_PID = opt("--pid", type=int, help="restrict to a pid")


def _top(default: int) -> Option:
    return opt("--top", type=int, default=default, help="table rows")


REPORTS: Dict[str, Report] = {
    "list": Report("event listing (Figure 5)", "listing", store=True,
                   options=(opt("--name", action="append"),
                            opt("--cpu", type=int),
                            opt("--start", type=float),
                            opt("--end", type=float),
                            opt("--limit", type=int),
                            opt("--control", action="store_true",
                                help="include infrastructure events"))),
    "kmon": Report("timeline view (Figure 4)", "kmon",
                   store=True, fleet=True,
                   options=(_SYMBOLS, opt("--width", type=int, default=96,
                                          help="columns"))),
    "locks": Report("lock contention (Figure 7)", "lockstats",
                    store=True, fleet=True,
                    options=(_SYMBOLS,
                             opt("--sort", default="time",
                                 choices=["time", "count", "spin", "max"],
                                 help="sort column"),
                             _top(10))),
    "profile": Report("PC-sample histogram (Figure 6)", "pcprofile",
                      store=True, fleet=True,
                      options=(_SYMBOLS, _PID, _top(20))),
    "breakdown": Report("per-process syscall/IPC breakdown (Figure 8)",
                        "breakdown", store=True, options=(_SYMBOLS, _PID)),
    "histogram": Report("event-frequency table (§4.2 path statistics)",
                        "pathstats", options=(_top(30),)),
    "memprofile": Report("memory hot-spot report from hw counters (§2)",
                         "memprofile", options=(_SYMBOLS, _top(8))),
    "holds": Report("lock hold-time analysis with preemption explanation "
                    "(§2)", "holdtimes", options=(_SYMBOLS, _top(10))),
    "sched": Report("scheduler stats + CPU time by process (§4.5)",
                    "schedstats", store=True, fleet=True,
                    options=(_SYMBOLS, _top(10))),
    "iostats": Report("I/O latency/volume/interrupt analysis (§2)",
                      "iostats", options=(_top(8),)),
}

#: The rows ``--tool`` offers.
FLEET_TOOLS = tuple(name for name, row in REPORTS.items() if row.fleet)


def _tool_options() -> Tuple[Option, ...]:
    """Every option a ``--tool`` row declares, once each.  Help says
    whose it is; a default the rows disagree on becomes None, for the
    surface to fill in from the row chosen."""
    declared: Dict[Tuple[str, ...], List[Tuple[str, Dict[str, Any]]]] = {}
    for name in FLEET_TOOLS:
        for flags, kw in REPORTS[name].options:
            declared.setdefault(flags, []).append((name, kw))
    merged = []
    for flags, rows in declared.items():
        kw = dict(rows[0][1])
        if "help" in kw:
            kw["help"] = "/".join(n for n, _ in rows) + ": " + kw["help"]
        if len({repr(r.get("default")) for _, r in rows}) > 1:
            kw["default"] = None
        merged.append((flags, kw))
    return tuple(merged)


#: What ``follow``, ``merge`` and ``fleet-run`` declare beside ``--tool``.
TOOL_OPTIONS = _tool_options()


def entry(tool: str, name: str = "report") -> Callable[..., str]:
    """The ``report`` (or ``fleet_rollup``) of ``tool``'s row."""
    return getattr(import_module("repro.tools." + REPORTS[tool].module),
                   name)
