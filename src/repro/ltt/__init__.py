"""Linux Trace Toolkit baseline configurations (§4.1).

The paper reports an order-of-magnitude improvement when K42's
technology was applied to LTT, from three changes: lockless logging,
per-processor buffers, and cheaper timestamp acquisition.  This package
provides each configuration so the ablation benchmark can isolate each
factor.  The x86 TSC-interpolation scheme LTT adopted for machines
without a synchronized cheap clock is :class:`repro.core.clockmap.ClockMap`
keyed by CPU, with anchors from
:meth:`repro.core.timestamps.DriftingTscClock.anchors`.
"""

from repro.ltt.configs import (
    LTT_CONFIGS,
    LttConfig,
    build_logger_set,
    original_ltt,
    k42_ltt,
)

__all__ = [
    "LttConfig", "LTT_CONFIGS", "build_logger_set", "original_ltt", "k42_ltt",
]
