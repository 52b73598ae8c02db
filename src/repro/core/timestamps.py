"""Timestamp sources.

K42 was developed on PowerPC, whose timebase register is synchronized
across CPUs and cheap to read from user space; x86 of the era had only
per-CPU ``tsc`` counters that drift relative to each other, plus an
expensive synchronized ``gettimeofday`` (§4.1).  The logger takes any
object with ``now(cpu) -> int``; the sources below model the three
hardware situations plus a manually-advanced clock for the simulator and
tests.

``cost_cycles`` is the abstract read cost charged by the simulator's cost
model; it does not affect wall-clock behaviour of the source itself.
"""

from __future__ import annotations

import time
from typing import Callable, Dict, Protocol, Sequence

from repro.core.clockmap import ClockAnchors


class ClockSource(Protocol):
    """Anything the logger can read timestamps from."""

    cost_cycles: int

    def now(self, cpu: int = 0) -> int:
        """Current tick count as seen from ``cpu`` (64-bit)."""
        ...


class WallClock:
    """Cheap synchronized clock — the PowerPC timebase situation.

    Backed by ``time.perf_counter_ns``; identical on every CPU.
    """

    cost_cycles = 10

    def __init__(self, tick_ns: int = 1) -> None:
        if tick_ns < 1:
            raise ValueError("tick_ns must be >= 1")
        self.tick_ns = tick_ns
        self._origin = time.perf_counter_ns()

    def now(self, cpu: int = 0) -> int:
        return (time.perf_counter_ns() - self._origin) // self.tick_ns


class ExpensiveWallClock:
    """Synchronized but costly clock — the ``gettimeofday`` situation.

    ``penalty_iters`` spins a short loop per read to model the syscall
    cost in wall-clock benchmarks (the simulator instead charges
    ``cost_cycles``).
    """

    cost_cycles = 1200

    def __init__(self, tick_ns: int = 1, penalty_iters: int = 120) -> None:
        self.tick_ns = tick_ns
        self.penalty_iters = penalty_iters
        self._origin = time.perf_counter_ns()

    def now(self, cpu: int = 0) -> int:
        acc = 0
        for i in range(self.penalty_iters):  # deliberate busy cost
            acc += i
        return (time.perf_counter_ns() - self._origin) // self.tick_ns


class ManualClock:
    """Explicitly advanced clock for the discrete-event simulator and tests."""

    cost_cycles = 10

    def __init__(self, start: int = 0) -> None:
        self._now = start

    def now(self, cpu: int = 0) -> int:
        return self._now

    def advance(self, ticks: int = 1) -> int:
        if ticks < 0:
            raise ValueError("clock cannot go backwards")
        self._now += ticks
        return self._now

    def set(self, value: int) -> None:
        if value < self._now:
            raise ValueError("clock cannot go backwards")
        self._now = value


class DriftingTscClock:
    """Per-CPU unsynchronized counters — the x86 ``tsc`` situation (§4.1).

    Each CPU sees ``offset[cpu] + rate[cpu] * base()`` where ``base`` is
    the true underlying time.  Rates differ by parts-per-million the way
    real crystal oscillators do, so per-CPU streams cannot be merged until
    a :class:`~repro.core.clockmap.ClockMap` keyed by CPU interpolates
    them onto a common axis between the two :meth:`anchors` pairs.
    """

    cost_cycles = 12

    def __init__(
        self,
        offsets: Sequence[int],
        rates: Sequence[float],
        base: Callable[[], int] | None = None,
    ) -> None:
        if len(offsets) != len(rates):
            raise ValueError("offsets and rates must have equal length")
        if any(r <= 0 for r in rates):
            raise ValueError("tsc rates must be positive")
        self.offsets = list(offsets)
        self.rates = list(rates)
        if base is None:
            origin = time.perf_counter_ns()
            base = lambda: time.perf_counter_ns() - origin  # noqa: E731
        self._base = base

    @property
    def ncpus(self) -> int:
        return len(self.offsets)

    def base_now(self) -> int:
        """The true time — what a perfectly synchronized clock would read."""
        return self._base()

    def now(self, cpu: int = 0) -> int:
        return int(self.offsets[cpu] + self.rates[cpu] * self._base())

    def anchors(self, base_start: int,
                base_end: int) -> Dict[int, ClockAnchors]:
        """Every CPU's anchor pairs, sampled at two true times.

        ``base_start``/``base_end`` are the instants at which the
        expensive synchronized clock was read (the two ``gettimeofday``
        calls of a live system); each CPU's tsc read at those instants
        forms its pair.
        """
        return {
            cpu: ClockAnchors(
                local_start=int(off + rate * base_start),
                wall_start=base_start,
                local_end=int(off + rate * base_end),
                wall_end=base_end,
            )
            for cpu, (off, rate) in enumerate(zip(self.offsets, self.rates))
        }
