"""Trace-integrity verification (§3.1's detection machinery, reported).

Aggregates the reader's anomaly records — garbled regions, per-buffer
committed-count mismatches, missing anchors — into a report suitable for
the write-out path's "report an anomaly if they do not match".
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Dict, List

from repro.core.columnar import as_batch
from repro.core.stream import Anomaly, Trace


@dataclass
class AnomalyReport:
    total_events: int
    anomalies: List[Anomaly] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.anomalies

    @property
    def by_kind(self) -> Dict[str, int]:
        return dict(Counter(a.kind for a in self.anomalies))

    @property
    def by_cpu(self) -> Dict[int, int]:
        return dict(Counter(a.cpu for a in self.anomalies))

    @property
    def salvaged_regions(self) -> int:
        """Garbled regions the reader resynchronized past (and thus
        salvaged the data after), rather than discarding the buffer."""
        return self.by_kind.get("recovered-region", 0)

    def describe(self) -> str:
        if self.ok:
            return f"trace clean: {self.total_events} events, no anomalies"
        lines = [
            f"trace has {len(self.anomalies)} anomalies over "
            f"{self.total_events} events:"
        ]
        for kind, count in sorted(self.by_kind.items()):
            lines.append(f"  {kind}: {count}")
        if self.salvaged_regions:
            lines.append(
                f"  ({self.salvaged_regions} damaged region(s) "
                f"resynchronized — the data after each was salvaged)"
            )
        for a in self.anomalies[:20]:
            lines.append(f"  cpu{a.cpu} buf{a.seq}+{a.offset}: {a.kind} ({a.detail})")
        if len(self.anomalies) > 20:
            lines.append(f"  ... and {len(self.anomalies) - 20} more")
        return "\n".join(lines)


def verify_trace(trace: Trace) -> AnomalyReport:
    """Summarize the integrity of a decoded trace."""
    return AnomalyReport(
        total_events=len(as_batch(trace)),
        anomalies=list(trace.anomalies),
    )
