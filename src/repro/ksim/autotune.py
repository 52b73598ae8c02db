"""Trace-fed self-tuning via hot swapping (§5 future work).

"The infrastructure was designed to facilitate dynamic tuning of the
operating system.  We are investigating how to integrate our
hot-swapping infrastructure with the tracing infrastructure in order to
provide feedback for the system to tune itself."

This module closes that loop on the simulated machine: a monitor runs
periodically *inside* the system, reads the recent trace (the flight
recorder — no extra instrumentation), computes lock-contention pressure
with the same analysis the offline tool uses, and when a lock crosses
the pressure threshold, hot-swaps the implementation behind it — here,
switching the memory allocator from the global-manager path to per-CPU
pools, K42's actual fix for its top Figure 7 entry.

The swap is the kind K42's hot-swapping mechanism performs: the
component's clients keep calling through the same interface; only the
routing changes, at a quiesce point, while the system runs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, List

import numpy as np

from repro.core.columnar import as_batch, decode_records_columnar
from repro.core.majors import LockMinor, Major

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.ksim.kernel import Kernel


@dataclass
class TuningAction:
    """One self-tuning decision, for the audit trail."""

    at_cycle: int
    lock_name: str
    contentions_seen: int
    action: str


class AllocatorAutotuner:
    """Watches allocator-lock contention in the trace; hot-swaps to
    per-CPU pools when it crosses the threshold."""

    def __init__(
        self,
        kernel: "Kernel",
        check_period: int = 500_000,
        contention_threshold: int = 20,
    ) -> None:
        self.kernel = kernel
        self.check_period = check_period
        self.contention_threshold = contention_threshold
        self.actions: List[TuningAction] = []
        self._last_counts: dict = {}
        self._armed = False
        self.swapped = False

    # ------------------------------------------------------------------
    def arm(self) -> None:
        if self._armed:
            return
        self._armed = True
        self.kernel.engine.after(self.check_period, self._check)

    def _recent_contention(self) -> dict:
        """Per-lock contention since the last check, from the trace.

        Reads the live flight-recorder state of the facility — the same
        data an offline Figure 7 analysis would see, sampled in flight —
        as event columns: one mask and a unique-count of the lock ids.
        """
        facility = self.kernel.facility
        if facility is None:
            return {}
        b = as_batch(decode_records_columnar(facility.snapshot()))
        sel = np.flatnonzero(b.mask(major=Major.LOCK,
                                    minor=LockMinor.CONTEND_START,
                                    min_data=1))
        locks, n = np.unique(b.data_column(0, sel), return_counts=True)
        counts = dict(zip(locks.tolist(), n.tolist()))
        deltas = {
            lock_id: n - self._last_counts.get(lock_id, 0)
            for lock_id, n in counts.items()
        }
        self._last_counts = counts
        return deltas

    def _check(self) -> None:
        if self.kernel.live_threads <= 0:
            self._armed = False
            return
        if not self.swapped:
            deltas = self._recent_contention()
            memory = self.kernel.memory
            global_id = memory.global_lock.lock_id
            pressure = deltas.get(global_id, 0)
            if pressure >= self.contention_threshold:
                self._hot_swap_allocator(pressure)
        self.kernel.engine.after(self.check_period, self._check)

    def _hot_swap_allocator(self, pressure: int) -> None:
        """Reroute allocations from the global manager to per-CPU pools.

        The interface (``memory.alloc``) is untouched; only the routing
        policy changes — the hot-swap model of [10].
        """
        kernel = self.kernel
        name = kernel.symbols().lock_names.get(
            kernel.memory.global_lock.lock_id, "?"
        )
        kernel.config.global_alloc_fraction = 0.02
        self.swapped = True
        self.actions.append(TuningAction(
            at_cycle=kernel.engine.now,
            lock_name=name,
            contentions_seen=pressure,
            action="hot-swapped allocator to per-CPU pools "
                   "(global path now refill-only)",
        ))
        # The tuning action is itself a trace event — the audit trail
        # lives in the same unified stream it was derived from.
        kernel.trace_str_event(
            None, "TRC_USER_APP_MARK", 0xA070,
            f"autotune: swapped allocator (pressure {pressure})",
        )

    def describe(self) -> str:
        if not self.actions:
            return "autotuner: no action taken"
        lines = ["autotuner actions:"]
        for a in self.actions:
            lines.append(
                f"  cycle {a.at_cycle:,}: {a.lock_name} saw "
                f"{a.contentions_seen} contentions -> {a.action}"
            )
        return "\n".join(lines)
