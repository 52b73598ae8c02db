"""Post-processing tools over the unified trace (§4).

Each tool consumes a decoded :class:`~repro.core.Trace` (and optionally
the simulator's :class:`~repro.ksim.SymbolTable`, this reproduction's
stand-in for debug symbols):

* :mod:`repro.tools.listing`   — textual event listing (Figure 5);
* :mod:`repro.tools.kmon`      — timeline visualizer (Figure 4), text + SVG;
* :mod:`repro.tools.pcprofile` — PC-sample histograms (Figure 6);
* :mod:`repro.tools.lockstats` — lock-contention analysis (Figure 7);
* :mod:`repro.tools.breakdown` — fine-grained time breakdown (Figure 8);
* :mod:`repro.tools.deadlock`  — lock-cycle detection (§4.2);
* :mod:`repro.tools.pathstats` — code-path frequency statistics (§4.2);
* :mod:`repro.tools.anomaly`   — garble/committed-count verification (§3.1).
"""

from repro.tools.anomaly import AnomalyReport, verify_trace
from repro.tools.breakdown import ProcessBreakdown, process_breakdown, format_breakdown
from repro.tools.compare import (
    TraceComparison,
    compare_traces,
    format_comparison,
)
from repro.tools.deadlock import DeadlockReport, find_deadlocks
from repro.tools.holdtimes import HoldReport, format_hold_report, hold_times
from repro.tools.iostats import IoReport, format_io_report, io_statistics
from repro.tools.kmon import Timeline
from repro.tools.listing import event_listing, format_listing
from repro.tools.lockstats import LockStats, format_lockstats, lock_statistics
from repro.tools.memprofile import (
    MemoryReport,
    format_memory_report,
    memory_profile,
)
from repro.tools.pathstats import event_histogram, path_frequencies
from repro.tools.pcprofile import format_profile, pc_profile
from repro.tools.schedstats import (
    SchedReport,
    format_sched_report,
    sched_statistics,
)

__all__ = [
    "AnomalyReport", "verify_trace",
    "ProcessBreakdown", "process_breakdown", "format_breakdown",
    "DeadlockReport", "find_deadlocks",
    "Timeline",
    "event_listing", "format_listing",
    "LockStats", "format_lockstats", "lock_statistics",
    "event_histogram", "path_frequencies",
    "format_profile", "pc_profile",
    "MemoryReport", "memory_profile", "format_memory_report",
    "HoldReport", "hold_times", "format_hold_report",
    "IoReport", "io_statistics", "format_io_report",
    "TraceComparison", "compare_traces", "format_comparison",
    "SchedReport", "sched_statistics", "format_sched_report",
]
