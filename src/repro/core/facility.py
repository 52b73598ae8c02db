"""The unified tracing facility (§2).

One :class:`TraceFacility` serves correctness debugging, performance
debugging, and performance monitoring: applications, libraries, servers,
and the kernel all log into the same per-CPU buffers through the same
mask, and the analysis tools decide afterwards which events matter for a
given purpose — the separation of collection from analysis the paper
calls out as goal 5.
"""

from __future__ import annotations

import threading
from typing import Dict, List, Literal, Optional, Sequence, Union

from repro.core.buffers import BufferRecord, TraceControl
from repro.core.constants import DEFAULT_BUFFER_WORDS, DEFAULT_NUM_BUFFERS
from repro.core.locking_logger import LockingTraceLogger
from repro.core.logger import NullTraceLogger, TraceLogger
from repro.core.majors import ControlMinor, Major
from repro.core.mask import TraceMask
from repro.core.registry import EventRegistry, default_registry
from repro.core.stream import Trace, TraceReader
from repro.core.timestamps import ClockSource, WallClock

LoggerKind = Literal["lockless", "locking", "locking-shared", "null"]


class TraceFacility:
    """Per-CPU trace controls + mask + registry + clock, assembled.

    ``kind`` selects the synchronization strategy, making ablation
    configurations one-liners:

    * ``"lockless"`` — the paper's design: per-CPU buffers, CAS reserve.
    * ``"locking"`` — per-CPU buffers, but a lock held across each log.
    * ``"locking-shared"`` — one global buffer and one global lock for
      all CPUs (the original-LTT configuration of §4.1).
    * ``"null"`` — trace statements compiled out (goal 6).
    """

    def __init__(
        self,
        ncpus: int = 1,
        kind: LoggerKind = "lockless",
        buffer_words: int = DEFAULT_BUFFER_WORDS,
        num_buffers: int = DEFAULT_NUM_BUFFERS,
        mode: Literal["writeout", "flight"] = "writeout",
        clock: Optional[ClockSource] = None,
        registry: Optional[EventRegistry] = None,
        mask: Optional[TraceMask] = None,
        commit_counts: bool = True,
        zero_ahead: bool = False,
        irq_disable_iters: int = 0,
    ) -> None:
        if ncpus < 1:
            raise ValueError("ncpus must be >= 1")
        self.ncpus = ncpus
        self.kind: LoggerKind = kind
        self.clock = clock if clock is not None else WallClock()
        self.registry = registry if registry is not None else default_registry()
        self.mask = mask if mask is not None else TraceMask()
        # Infrastructure events (fillers, anchors) must always flow.
        self.mask.enable(Major.CONTROL)
        self.buffer_words = buffer_words
        self.num_buffers = num_buffers

        self.controls: List[TraceControl] = []
        self.loggers: List[Union[TraceLogger, LockingTraceLogger, NullTraceLogger]] = []

        if kind == "null":
            self.controls = []
            self.loggers = [NullTraceLogger() for _ in range(ncpus)]
            return

        if kind == "locking-shared":
            shared = TraceControl(
                cpu=0, buffer_words=buffer_words, num_buffers=num_buffers,
                mode=mode, zero_ahead=zero_ahead,
            )
            shared_lock = threading.Lock()
            self.controls = [shared]
            for cpu in range(ncpus):
                self.loggers.append(
                    LockingTraceLogger(
                        shared, self.mask, self.clock, registry=self.registry,
                        commit_counts=commit_counts, lock=shared_lock,
                        irq_disable_iters=irq_disable_iters, cpu=cpu,
                    )
                )
            self.loggers[0].start()
            return

        for cpu in range(ncpus):
            control = TraceControl(
                cpu=cpu, buffer_words=buffer_words, num_buffers=num_buffers,
                mode=mode, zero_ahead=zero_ahead,
            )
            self.controls.append(control)
            if kind == "lockless":
                logger = TraceLogger(
                    control, self.mask, self.clock, registry=self.registry,
                    commit_counts=commit_counts,
                )
            elif kind == "locking":
                logger = LockingTraceLogger(
                    control, self.mask, self.clock, registry=self.registry,
                    commit_counts=commit_counts,
                    irq_disable_iters=irq_disable_iters,
                )
            else:
                raise ValueError(f"unknown facility kind {kind!r}")
            self.loggers.append(logger)
            logger.start()

    # ------------------------------------------------------------------
    def logger(self, cpu: int):
        """The per-CPU logger; user code holds this, K42-style, to log
        without any system call."""
        return self.loggers[cpu]

    def log(self, cpu: int, major: int, minor: int, data: Sequence[int] = ()) -> bool:
        return self.loggers[cpu].log_words(major, minor, data)

    def log_event(self, cpu: int, name: str, *values) -> bool:
        return self.loggers[cpu].log_event(name, *values)

    # -- dynamic enable/disable (goal 4) --------------------------------
    def enable(self, *majors: int) -> None:
        old = self.mask.value
        self.mask.enable(*majors)
        self._log_mask_change(old)

    def disable(self, *majors: int) -> None:
        old = self.mask.value
        self.mask.disable(*majors)
        self.mask.enable(Major.CONTROL)
        self._log_mask_change(old)

    def enable_all(self) -> None:
        old = self.mask.value
        self.mask.enable_all()
        self._log_mask_change(old)

    def disable_all(self) -> None:
        old = self.mask.value
        self.mask.disable_all()
        self.mask.enable(Major.CONTROL)
        self._log_mask_change(old)

    def _log_mask_change(self, old: int) -> None:
        if self.kind == "null" or not self.loggers:
            return
        self.loggers[0].log_words(
            Major.CONTROL, ControlMinor.MASK_CHANGE, (old, self.mask.value)
        )

    # -- data extraction --------------------------------------------------
    def drain(self) -> List[BufferRecord]:
        """Completed buffers not yet written out (writeout mode)."""
        out: List[BufferRecord] = []
        for control in self.controls:
            out.extend(control.drain())
        return out

    def flush(self) -> List[BufferRecord]:
        """All data: completed buffers plus in-progress partial buffers.

        Call once logging has quiesced (end of run / benchmark region).
        """
        out: List[BufferRecord] = []
        for control in self.controls:
            out.extend(control.flush())
        return out

    def snapshot(self) -> List[BufferRecord]:
        """Flight-recorder snapshot of every CPU's recent history."""
        out: List[BufferRecord] = []
        for control in self.controls:
            out.extend(control.snapshot())
        return out

    def decode(self, records: Optional[List[BufferRecord]] = None,
               include_fillers: bool = False) -> Trace:
        """Decode records (default: flush everything) into a Trace."""
        if records is None:
            records = self.flush()
        reader = TraceReader(
            registry=self.registry, include_fillers=include_fillers,
            check_committed=True,
        )
        return reader.decode_records(records)

    # -- statistics ---------------------------------------------------------
    def stats(self) -> Dict[str, int]:
        """Writer counters summed over the CPUs, and ``dropped_buffers``:
        what their write-out collectors lost to ring lapping."""
        keys = ("events_logged", "words_logged", "fillers", "filler_words",
                "buffers_completed", "cas_retries", "exact_boundary")
        totals = {k: sum(getattr(c, "stats_" + k) for c in self.controls)
                  for k in keys}
        totals["dropped_buffers"] = sum(
            c.collector.stats.dropped for c in self.controls if c.collector)
        return totals
