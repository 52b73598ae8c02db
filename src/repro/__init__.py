"""repro — reproduction of "Efficient, Unified, and Scalable Performance
Monitoring for Multiprocessor Operating Systems" (Wisniewski & Rosenberg,
SC 2003): the K42 tracing infrastructure.

Public surface:

* :mod:`repro.core` — the tracing infrastructure itself (lockless
  variable-length event logging, per-CPU buffers, random-access streams,
  self-describing events, the unified :class:`~repro.core.TraceFacility`;
  :mod:`repro.core.lane` is the word store every writer logs into).
* :mod:`repro.ksim` — the K42-like multiprocessor OS simulator substrate
  whose instrumented kernel paths generate realistic traces.
* :mod:`repro.workloads` — SDET-like and other workload generators.
* :mod:`repro.ltt` — the Linux Trace Toolkit baseline configurations and
  x86 TSC interpolation (§4.1).
* :mod:`repro.tools` — post-processing: event listing, kmon timeline,
  PC-sample profiles, lock-contention analysis, time breakdowns,
  deadlock detection, anomaly reporting.
"""

from repro.core import (
    Major,
    TraceEvent,
    TraceFacility,
    TraceMask,
    TraceReader,
    default_registry,
)

__version__ = "1.0.0"

__all__ = [
    "TraceFacility",
    "TraceMask",
    "TraceReader",
    "TraceEvent",
    "Major",
    "default_registry",
    "__version__",
]
