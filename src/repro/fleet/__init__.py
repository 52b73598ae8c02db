"""Fleet-scale trace aggregation: N nodes, one clock-aligned view.

The paper targets one multiprocessor; a production fleet is many.  Each
node logs events on its own cheap local timebase — exactly the §4.1
x86-tsc situation, one level up: what drifting per-CPU counters are to
one machine, drifting per-node clocks are to a cluster.  So the same
LTT cure applies, with nodes for streams: every node carries two
``(local_ts, wall)`` anchor pairs, the one
:class:`~repro.core.clockmap.ClockMap` (keyed by node id here, by CPU
for §4.1) re-bases its events onto the common fleet clock within a
provable residual-skew bound, and the re-based per-node traces merge
into one unified columnar view whose
:class:`~repro.core.columnar.EventBatch` carries a ``node`` column.

Pieces:

* :mod:`repro.fleet.merge` — ingest per-node traces (``.k42`` files,
  store directories, drained shm regions), build a :class:`FleetView`
  (per-node originals + unified merged batch), pack it into a
  node-aware store.
* :mod:`repro.fleet.launch` — the launcher: K node workloads run end to
  end as local subprocesses, producing the per-node traces plus anchor
  sidecars.
"""

from repro.fleet.merge import (
    ANCHORS_SUFFIX,
    FleetView,
    NodeSource,
    ingest_path,
    merge_paths,
    merge_traces,
    pack_fleet_view,
    read_anchor_sidecar,
    write_anchor_sidecar,
)
from repro.fleet.launch import (
    FleetRunResult,
    NodeLocalClock,
    NodeRunResult,
    NodeSpec,
    fleet_run,
)

__all__ = [
    "ANCHORS_SUFFIX",
    "NodeSource",
    "FleetView",
    "merge_traces",
    "merge_paths",
    "ingest_path",
    "pack_fleet_view",
    "read_anchor_sidecar",
    "write_anchor_sidecar",
    "NodeSpec",
    "NodeRunResult",
    "NodeLocalClock",
    "FleetRunResult",
    "fleet_run",
]
