"""kmon's interactive mode, as a scriptable command session.

Figure 4's tool was driven with a mouse: zoom in and out, mark events,
click the timeline for a listing.  This is the same interaction model
over a command language, usable from a terminal
(``repro-trace kmon --interactive``), a script, or a test::

    zoom 0.001 0.002
    mark TRC_USER_RETURNED_MAIN
    lanes
    render 80
    click 0.0015
    svg out.svg

Each command returns text; ``help`` lists everything.  The session
keeps a zoom stack so ``out`` walks back like a browser.
"""

from __future__ import annotations

import shlex
from typing import Callable, Dict, List, Optional, TextIO

from repro.core.columnar import as_batch
from repro.core.stream import Trace
from repro.tools.kmon import Timeline
from repro.tools.listing import CYCLES_PER_SECOND


class KmonSession:
    """Stateful command interpreter over one trace."""

    def __init__(self, trace: Trace,
                 process_names: Optional[Dict[int, str]] = None) -> None:
        self.trace = trace
        self.process_names = process_names or {}
        self.timeline = Timeline(trace)
        self._zoom_stack: List[Timeline] = []
        self.width = 96
        self._commands: Dict[str, Callable[..., str]] = {
            "help": self._cmd_help,
            "info": self._cmd_info,
            "render": self._cmd_render,
            "zoom": self._cmd_zoom,
            "out": self._cmd_out,
            "mark": self._cmd_mark,
            "lanes": self._cmd_lanes,
            "click": self._cmd_click,
            "counts": self._cmd_counts,
            "svg": self._cmd_svg,
        }

    # ------------------------------------------------------------------
    def execute(self, line: str) -> str:
        """Run one command line; returns its output (or an error line)."""
        parts = shlex.split(line.strip())
        if not parts:
            return ""
        name, *args = parts
        fn = self._commands.get(name)
        if fn is None:
            return f"unknown command {name!r}; try 'help'"
        try:
            return fn(*args)
        except (TypeError, ValueError) as exc:
            return f"error: {exc}"

    def run(self, in_fh: TextIO, out_fh: TextIO,
            prompt: str = "kmon> ") -> None:
        """A REPL over file handles (stdin/stdout in the CLI)."""
        out_fh.write("kmon interactive session — 'help' for commands, "
                     "'quit' to leave\n")
        for line in in_fh:
            line = line.strip()
            if line in ("quit", "exit", "q"):
                break
            out = self.execute(line)
            if out:
                out_fh.write(out + "\n")
            out_fh.write(prompt)
            out_fh.flush()

    # ------------------------------------------------------------------
    def _cmd_help(self) -> str:
        return "\n".join([
            "help                 this text",
            "info                 window and event counts",
            "render [width]       draw the timeline",
            "zoom <start> <end>   zoom to a window (seconds)",
            "out                  zoom back out one level",
            "mark <event-name>    mark + count an event type",
            "lanes [pid...]       add per-process lanes (busiest if none)",
            "click <t> [window]   list events around time t (seconds)",
            "counts               marked-event counts in this window",
            "svg <path>           write the current view as SVG",
        ])

    def _cmd_info(self) -> str:
        tl = self.timeline
        b = as_batch(self.trace)
        times = b.time[b.timed]
        n = int(((times >= tl.t0) & (times <= tl.t1)).sum())
        return (
            f"window {tl.t0 / CYCLES_PER_SECOND:.6f}s .. "
            f"{tl.t1 / CYCLES_PER_SECOND:.6f}s, {n} events, "
            f"{len(self._zoom_stack)} zoom levels deep"
        )

    def _cmd_render(self, width: str = "") -> str:
        if width:
            self.width = int(width)
        return self.timeline.render(width=self.width)

    def _cmd_zoom(self, start: str, end: str) -> str:
        zoomed = self.timeline.zoom(float(start), float(end))
        self._zoom_stack.append(self.timeline)
        self.timeline = zoomed
        return self._cmd_info()

    def _cmd_out(self) -> str:
        if not self._zoom_stack:
            return "already at the outermost view"
        self.timeline = self._zoom_stack.pop()
        return self._cmd_info()

    def _cmd_mark(self, *names: str) -> str:
        if not names:
            return "usage: mark <event-name> [...]"
        self.timeline.mark(*names)
        return self._cmd_counts()

    def _cmd_lanes(self, *pids: str) -> str:
        self.timeline.show_processes(
            *(int(p) for p in pids), names=self.process_names
        )
        shown = self.timeline.process_pids
        return f"process lanes: {shown}"

    def _cmd_click(self, at: str, window: str = "1e-4") -> str:
        text = self.timeline.click_listing(float(at), float(window))
        return text if text else "no events in that window"

    def _cmd_counts(self) -> str:
        counts = self.timeline.marked_counts()
        if not counts:
            return "nothing marked"
        return "\n".join(f"{name}: {count}" for name, count in counts.items())

    def _cmd_svg(self, path: str) -> str:
        with open(path, "w") as fh:
            fh.write(self.timeline.render_svg())
        return f"wrote {path}"
