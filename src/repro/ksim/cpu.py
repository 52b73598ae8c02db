"""Simulated CPUs: run queue, current thread, idle accounting."""

from __future__ import annotations

from collections import deque
from typing import Deque, Optional

from repro.ksim.thread import SimThread


class Cpu:
    def __init__(self, idx: int) -> None:
        self.idx = idx
        self.run_queue: Deque[SimThread] = deque()
        self.current: Optional[SimThread] = None
        self.quantum_end: int = 0
        self.dispatch_scheduled = False
        # Idle accounting for utilization reports and the kmon timeline.
        self.idle = True
        self.idle_since: int = 0
        self.last_addr: int = 0  # thread addr last seen (context-switch trace)
        self.total_idle: int = 0
        self.context_switches = 0
        self.migrations_in = 0

    def note_busy(self, now: int) -> None:
        if self.idle:
            self.total_idle += now - self.idle_since
            self.idle = False

    def note_idle(self, now: int) -> None:
        if not self.idle:
            self.idle = True
            self.idle_since = now

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        cur = self.current.tid if self.current else None
        return f"Cpu({self.idx}, current={cur}, queue={len(self.run_queue)})"
