"""Privilege-separated tracing domains (§5's protection future work).

"Currently, all data is logged to a single shared buffer.  Although this
has good performance and analytical properties, different users may not
desire to have information about their behavior available to other
users.  To solve this, we intend to map in different buffers to user
applications that do not have sufficient privileges to see all data."

Implemented here: a privileged *global* facility (kernel, servers,
privileged processes) plus a private facility per unprivileged process.
An unprivileged process logs into — and can read back — only its own
buffers; the privileged view merges every domain into the single
time-ordered stream the analysis tools expect (all domains share one
clock, so the merge is exact).  The mask and registry are shared, so
"which events exist" stays unified; only *visibility* is partitioned.
"""

from __future__ import annotations

from typing import Dict, Optional

from repro.core.facility import TraceFacility
from repro.core.mask import TraceMask
from repro.core.registry import EventRegistry, default_registry
from repro.core.stream import Trace
from repro.core.timestamps import ClockSource, WallClock


class PermissionError_(PermissionError):
    """Raised when a domain reads data it has no privilege for."""


def merge_traces(*traces: Trace) -> Trace:
    """Merge decoded traces (same clock domain) into one Trace."""
    merged = Trace()
    for trace in traces:
        for cpu, events in trace.events_by_cpu.items():
            merged.events_by_cpu.setdefault(cpu, []).extend(events)
        merged.anomalies.extend(trace.anomalies)
    for cpu, events in merged.events_by_cpu.items():
        events.sort(key=lambda e: (e.time if e.time is not None else -1,
                                   e.seq, e.offset))
    return merged


class TraceDomains:
    """The privilege-partitioned tracing arrangement."""

    def __init__(
        self,
        ncpus: int,
        clock: Optional[ClockSource] = None,
        registry: Optional[EventRegistry] = None,
        buffer_words: int = 1024,
        num_buffers: int = 8,
        private_buffer_words: int = 256,
        private_num_buffers: int = 4,
    ) -> None:
        self.ncpus = ncpus
        self.clock = clock if clock is not None else WallClock()
        self.registry = registry if registry is not None else default_registry()
        self.mask = TraceMask()
        self._fac_kw = dict(clock=self.clock, registry=self.registry,
                            mask=self.mask)
        #: The privileged global domain (kernel, servers).
        self.global_facility = TraceFacility(
            ncpus=ncpus, buffer_words=buffer_words, num_buffers=num_buffers,
            **self._fac_kw,
        )
        self.private_buffer_words = private_buffer_words
        self.private_num_buffers = private_num_buffers
        self._private: Dict[int, TraceFacility] = {}
        self._privileged: Dict[int, bool] = {}

    # ------------------------------------------------------------------
    def register(self, pid: int, privileged: bool = False) -> None:
        """Declare a process and its privilege level."""
        if pid in self._privileged:
            raise ValueError(f"pid {pid} already registered")
        self._privileged[pid] = privileged
        if not privileged:
            self._private[pid] = TraceFacility(
                ncpus=self.ncpus,
                buffer_words=self.private_buffer_words,
                num_buffers=self.private_num_buffers,
                **self._fac_kw,
            )

    def facility_for(self, pid: int) -> TraceFacility:
        """The facility whose buffers are mapped into ``pid``'s space."""
        if pid not in self._privileged:
            raise KeyError(f"pid {pid} not registered")
        if self._privileged[pid]:
            return self.global_facility
        return self._private[pid]

    def logger(self, pid: int, cpu: int):
        """The per-CPU logger ``pid`` logs through — still lockless and
        per-CPU; the partitioning costs nothing on the log path."""
        return self.facility_for(pid).logger(cpu)

    # ------------------------------------------------------------------
    def view(self, pid: int) -> Trace:
        """What ``pid`` may read: its own private stream, or — for a
        privileged process — everything."""
        if pid not in self._privileged:
            raise KeyError(f"pid {pid} not registered")
        if self._privileged[pid]:
            return self.view_privileged(pid)
        return self._private[pid].decode()

    def view_privileged(self, pid: Optional[int] = None) -> Trace:
        """The complete merged stream; requires privilege."""
        if pid is not None and not self._privileged.get(pid, False):
            raise PermissionError_(
                f"pid {pid} lacks privilege to read the global trace"
            )
        traces = [self.global_facility.decode()]
        traces.extend(fac.decode() for fac in self._private.values())
        return merge_traces(*traces)

    # ------------------------------------------------------------------
    def enable(self, *majors: int) -> None:
        self.mask.enable(*majors)

    def enable_all(self) -> None:
        self.mask.enable_all()

    @property
    def domain_count(self) -> int:
        return 1 + len(self._private)
