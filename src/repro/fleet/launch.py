"""The fleet launcher: run K node workloads, get K traces.

Nodes are local OS subprocesses (:func:`launch_local`).  Each one runs
the standard deterministic contention workload
(:func:`repro.workloads.run_contention`) but logs timestamps through a
:class:`NodeLocalClock` — its own skewed offset/rate view of true time,
the fleet analogue of a drifting tsc — then writes its ``.k42`` trace
plus the ``.anchors.json`` sidecar that
:func:`repro.fleet.merge.merge_paths` aligns with.

The worker entry point (:func:`node_main`) is module-level and takes
only picklable arguments, so both ``fork`` and ``spawn`` start methods
work — the same discipline as :mod:`repro.shm.procs`.
"""

from __future__ import annotations

import multiprocessing
import os
import random
from dataclasses import asdict, dataclass
from typing import Any, Dict, List, Optional, Sequence

from repro.core.clockmap import ClockAnchors
from repro.core.timestamps import ClockSource
from repro.core.writer import save_records
from repro.fleet.merge import (
    ANCHORS_SUFFIX,
    FleetView,
    merge_paths,
    write_anchor_sidecar,
)


class NodeLocalClock:
    """A node's cheap local timebase, skewed against true time.

    Reads ``int(offset + rate * (start_base + inner.now(cpu)))`` — one
    offset/rate pair for the whole node (per-*node* anchors are the
    tentpole's model; per-CPU drift within a node is §4.1's separate,
    already-modeled problem).  ``start_base`` staggers nodes on the
    shared true axis so their workloads don't all begin at t=0.
    """

    def __init__(self, inner: ClockSource, offset: int, rate: float,
                 start_base: int = 0) -> None:
        if rate <= 0:
            raise ValueError("node clock rates must be positive")
        self._inner = inner
        self.offset = int(offset)
        self.rate = float(rate)
        self.start_base = int(start_base)
        self.cost_cycles = inner.cost_cycles

    def base_now(self, cpu: int = 0) -> int:
        """True (fleet) time as the workload harness knows it."""
        return self.start_base + self._inner.now(cpu)

    def now(self, cpu: int = 0) -> int:
        return int(self.offset + self.rate * self.base_now(cpu))


@dataclass(frozen=True)
class NodeSpec:
    """Everything one node run needs — picklable for spawn."""

    node: int
    seed: int
    clock_offset: int
    clock_rate: float
    start_base: int
    ncpus: int = 2
    workers_per_cpu: int = 2
    iterations: int = 30
    buffer_words: int = 4096
    num_buffers: int = 16


@dataclass
class NodeRunResult:
    """Where one node's artifacts landed."""

    node: int
    trace_path: str
    anchors_path: str


def node_paths(out_dir: str, node: int) -> Dict[str, str]:
    trace_path = os.path.join(out_dir, f"node-{node:04d}.k42")
    return {"trace": trace_path, "anchors": trace_path + ANCHORS_SUFFIX}


def node_main(spec_doc: Dict[str, Any], trace_path: str) -> None:
    """Run one node's workload; write its trace + anchor sidecar.

    Module-level and dict-argumented so every multiprocessing start
    method can ship it.  The anchor pairs bracket the workload: the
    wall values are the true simulator times of start and end (what a
    ``gettimeofday`` against the fleet's synchronized clock would have
    returned), the local values are the node clock's readings at those
    instants.
    """
    from repro.workloads import run_contention

    spec = NodeSpec(**spec_doc)
    holder: Dict[str, NodeLocalClock] = {}

    def wrap(inner: ClockSource) -> ClockSource:
        clock = NodeLocalClock(inner, spec.clock_offset, spec.clock_rate,
                               spec.start_base)
        holder["clock"] = clock
        return clock

    kernel, facility, _result = run_contention(
        ncpus=spec.ncpus,
        workers_per_cpu=spec.workers_per_cpu,
        iterations=spec.iterations,
        seed=spec.seed,
        buffer_words=spec.buffer_words,
        num_buffers=spec.num_buffers,
        clock_transform=wrap,
    )
    clock = holder["clock"]
    # flush(), not snapshot(): the run has quiesced, and a
    # flight-recorder snapshot of a ring that never wrapped would also
    # emit the untouched all-zero buffers as phantom garbled regions.
    save_records(trace_path, facility.flush(),
                 buffer_words=spec.buffer_words)
    wall_start = spec.start_base
    # Pad the end anchor past the last event far enough that the local
    # reading strictly increases even for rates < 1.
    wall_end = clock.base_now() + int(2.0 / spec.clock_rate) + 1
    anchors = ClockAnchors(
        local_start=int(spec.clock_offset
                        + spec.clock_rate * wall_start),
        wall_start=wall_start,
        local_end=int(spec.clock_offset + spec.clock_rate * wall_end),
        wall_end=wall_end,
    )
    write_anchor_sidecar(trace_path, spec.node, anchors,
                         meta={"seed": spec.seed,
                               "clock_rate": spec.clock_rate})


def launch_local(
    specs: Sequence[NodeSpec],
    out_dir: str,
    start_method: Optional[str] = None,
    timeout_s: float = 300.0,
) -> List[NodeRunResult]:
    """Run every node spec as a local OS subprocess (fork or spawn);
    return where the artifacts landed."""
    os.makedirs(out_dir, exist_ok=True)
    ctx = multiprocessing.get_context(start_method)
    procs = []
    results: List[NodeRunResult] = []
    try:
        for spec in specs:
            paths = node_paths(out_dir, spec.node)
            p = ctx.Process(
                target=node_main,
                args=(asdict(spec), paths["trace"]),
                name=f"fleet-node-{spec.node}",
            )
            p.start()
            procs.append((spec, p, paths))
        for spec, p, paths in procs:
            p.join(timeout_s)
            if p.is_alive():
                raise RuntimeError(
                    f"node {spec.node} exceeded {timeout_s}s")
            if p.exitcode != 0:
                raise RuntimeError(
                    f"node {spec.node} exited with {p.exitcode}")
            results.append(NodeRunResult(
                node=spec.node,
                trace_path=paths["trace"],
                anchors_path=paths["anchors"],
            ))
    finally:
        for _spec, p, _paths in procs:
            if p.is_alive():
                p.terminate()
                p.join(5)
    return results


@dataclass
class FleetRunResult:
    """A launched-and-merged fleet run."""

    view: FleetView
    node_results: List[NodeRunResult]
    out_dir: str


def make_specs(
    nodes: int,
    seed: int = 2003,
    ncpus: int = 2,
    workers_per_cpu: int = 2,
    iterations: int = 30,
    buffer_words: int = 4096,
    num_buffers: int = 16,
    stagger: int = 50_000,
) -> List[NodeSpec]:
    """Deterministic per-node specs: distinct seeds, offsets, rates.

    Clock parameters draw from ``random.Random(seed)`` — offsets up to
    ~1e12 ticks and rates within ±3%, the crystal-oscillator ballpark
    §4.1 describes — so a fleet run is reproducible from one seed.
    """
    if nodes < 1:
        raise ValueError("need at least one node")
    rng = random.Random(seed)
    specs = []
    for n in range(nodes):
        specs.append(NodeSpec(
            node=n,
            seed=seed + 1000 * (n + 1),
            clock_offset=rng.randrange(1_000_000, 1_000_000_000_000),
            clock_rate=rng.uniform(0.97, 1.03),
            start_base=n * stagger,
            ncpus=ncpus,
            workers_per_cpu=workers_per_cpu,
            iterations=iterations,
            buffer_words=buffer_words,
            num_buffers=num_buffers,
        ))
    return specs


def fleet_run(
    out_dir: str,
    nodes: int = 2,
    start_method: Optional[str] = None,
    seed: int = 2003,
    ncpus: int = 2,
    workers_per_cpu: int = 2,
    iterations: int = 30,
    buffer_words: int = 4096,
    num_buffers: int = 16,
) -> FleetRunResult:
    """Launch K node workloads end to end and merge their traces."""
    specs = make_specs(nodes, seed=seed, ncpus=ncpus,
                       workers_per_cpu=workers_per_cpu,
                       iterations=iterations, buffer_words=buffer_words,
                       num_buffers=num_buffers)
    results = launch_local(specs, out_dir, start_method=start_method)
    view = merge_paths([r.trace_path for r in results])
    return FleetRunResult(view=view, node_results=results, out_dir=out_dir)
