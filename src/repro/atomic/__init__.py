"""Atomic-primitive substrate.

The paper's lockless logging algorithm (Figure 2) is built on a hardware
compare-and-store instruction (``stwcx.`` on PowerPC).  CPython exposes no
such primitive, so this package provides two stand-ins:

* :class:`~repro.atomic.primitives.AtomicWord` /
  :class:`~repro.atomic.primitives.AtomicArray` — thread-safe emulated
  hardware atomics.  Loads are plain reads; only read-modify-writes
  (store, compare-and-store, fetch-and-add) take a micro-lock that is
  *internal to the primitive*, as a hardware instruction is atomic
  internally — the argument :mod:`repro.shm.atomics` makes too.  No lock
  is ever held across the reserve/log/commit sequence, which is what
  "lockless" means in the paper.

* :class:`~repro.atomic.simatomic.SimAtomicWord` — a deterministic variant
  for the discrete-event simulator and for property tests, with an
  injectable interference hook so tests can force CAS failures at exact
  points in the retry loop.

* :class:`~repro.atomic.stepped.SteppedAtomicWord` /
  :class:`~repro.atomic.stepped.SteppedAtomicArray` — step-instrumented
  variants for the schedule-exploring model checker (:mod:`repro.check`):
  every operation is a scheduling point at which a controlled scheduler
  may switch simulated CPUs.
"""

from repro.atomic.primitives import AtomicArray, AtomicWord
from repro.atomic.simatomic import InterferenceHook, SimAtomicWord
from repro.atomic.stepped import SteppedAtomicArray, SteppedAtomicWord

__all__ = [
    "AtomicWord",
    "AtomicArray",
    "SimAtomicWord",
    "InterferenceHook",
    "SteppedAtomicWord",
    "SteppedAtomicArray",
]
