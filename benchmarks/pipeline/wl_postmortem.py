"""Analyst path on a raw trace: ``postmortem``.

Seven ``repro-trace`` reports over the contended ``.k42``, called
in-process through ``repro.cli.main`` with stdout captured.  An *op* is
one report; a *rotation* is the seven of them.  The traced run makes the
same reports from the library functions the CLI calls, one span per
stage, beside plain CLI calls for reference.
"""

import os

import numpy as np

import gen
import harness
from wl_store import SYM, render_locks
from repro.core import pool
from repro.core.columnar import ColumnarTraceReader, as_batch
from repro.core.parallel import decode_records_columnar_parallel
from repro.core.registry import default_registry
from repro.core.writer import load_records, save_records
from repro.ksim.ipc import FS_FUNCTION_NAMES
from repro.store import Predicate, select
from repro.tools.breakdown import format_breakdown, process_breakdown
from repro.tools.kmon import Timeline
from repro.tools.listing import format_event, format_listing
from repro.tools.pcprofile import format_profile, pc_profile
from repro.tools.schedstats import format_sched_report, sched_statistics

LIST_NAME = "TRC_LOCK_CONTEND_START"
TOOLS = {
    "info": ["info"], "locks": ["locks"], "profile": ["profile"],
    "sched": ["sched"], "breakdown": ["breakdown"], "kmon": ["kmon"],
    "list": ["list", "--name", LIST_NAME],
}
#: Of a rotation's seven reports: between the two slowest.
TAIL_PERCENTILE = 75
PROBE_REPS = 5


def argv_for(tool, path):
    head, *rest = TOOLS[tool]
    return [head, path, *rest]


# The library side of each report, as the CLI composes it with default
# flags: (span name, compute, render to the CLI's exact stdout).
def _profile(trace):
    hist = pc_profile(trace, SYM.pc_names, pid=None, columnar=True)
    return format_profile(hist, pid=None, top=20) + "\n"


def _sched(trace):
    report = sched_statistics(trace, columnar=True)
    return format_sched_report(report, SYM.process_names, top=10) + "\n"


def _breakdown(trace):
    bds = process_breakdown(trace, SYM.syscall_names, SYM.process_names,
                            FS_FUNCTION_NAMES, columnar=True)
    return "".join(format_breakdown(bds[pid]) + "\n\n" for pid in sorted(bds))


def _kmon(trace):
    return Timeline(trace, columnar=True).render(width=96) + "\n"


def _list(trace):
    return format_listing(trace, names=[LIST_NAME], cpu=None, start=None,
                          end=None, limit=None, include_control=False,
                          columnar=True) + "\n"


LIBRARY = {
    "locks": ("tools.lockstats", render_locks),
    "profile": ("tools.pcprofile", _profile),
    "sched": ("tools.schedstats", _sched),
    "breakdown": ("tools.breakdown", _breakdown),
    "kmon": ("tools.kmon", _kmon),
    "list": ("tools.listing", _list),
}


def library_report(tr, tool, path):
    """One report from library calls, a span per stage; returns the
    text and the op's duration in ns."""
    stage, render = LIBRARY[tool]
    with tr.span("report:" + tool) as op:
        with tr.span("core.writer.load_records"):
            records = load_records(path)
        with tr.span("core.columnar.decode_records"):
            trace = ColumnarTraceReader(
                registry=default_registry()).decode_records(records)
        with tr.span("core.columnar.as_batch"):
            as_batch(trace)
        with tr.span(stage):
            text = render(trace)
    return text, op.ns


def build(ctx, work):
    """Generate ``contended.k42`` and the ground truth the checks use."""
    path = os.path.join(work, "contended.k42")
    records = gen.contended_records(ctx.seed, ctx.scale)
    save_records(path, records)
    batch = as_batch(ColumnarTraceReader(
        registry=default_registry()).decode_records(records))
    rows = np.flatnonzero(select(batch, Predicate(
        names=(LIST_NAME,), include_control=False)))
    listing = "".join(format_event(e) + "\n" for e in batch.events(rows))
    return {"path": path, "records": records, "events": len(batch),
            "bytes": os.path.getsize(path), "listing_sha": gen.sha256_text(listing)}


def run(ctx, name):
    with harness.work_dir(name) as work:
        truth, setup_s = harness.timed_setup(lambda: build(ctx, work),
                                             ctx.setup_reps)
        path = truth["path"]
        reference = {}
        problems = []
        failed = 0
        op_ms = []

        def fail(msg):
            nonlocal failed
            failed += 1
            if len(problems) < 8:
                problems.append(msg)

        def cli_report(tool):
            """One CLI report, checked; returns its latency in ns."""
            t0 = harness.now_ns()
            rc, out, err = harness.cli_call(argv_for(tool, path))
            ns = harness.now_ns() - t0
            digest = gen.sha256_text(out)
            if tool not in reference:
                # The warm-up rotation fixes the reference and is itself
                # checked against the ground truth of setup.
                reference[tool] = digest
                if ctx.fault == "flip-hash" and tool == "locks":
                    reference[tool] = digest[::-1]
                if tool == "info" and \
                        f"events: {truth['events']} " not in out:
                    fail("info: event count differs from setup")
                if tool == "list" and digest != truth["listing_sha"]:
                    fail("list: rows differ from store.select")
            if rc != 0:
                fail(f"{tool}: rc {rc}: {err[-200:]}")
            elif digest != reference[tool]:
                fail(f"{tool}: stdout changed between rotations")
            return ns

        def rotation(i):
            """All seven reports; every other rotation of a traced run
            makes the six that have a library form from spans."""
            spanned = ctx.tracer is not None and i % 2 == 1
            unit_ms = []
            for tool in TOOLS:
                if spanned and tool in LIBRARY:
                    text, ns = library_report(ctx.tracer, tool, path)
                    if gen.sha256_text(text) != reference[tool]:
                        fail(f"{tool}: library output differs from the CLI's")
                else:
                    ns = cli_report(tool)
                if i:
                    op_ms.append((tool, spanned and tool in LIBRARY, ns / 1e6))
                unit_ms.append(ns / 1e6)
            rate = len(TOOLS) * truth["events"] / (sum(unit_ms) / 1e3)
            return spanned, rate, unit_ms

        rotations = harness.run_units(rotation, ctx.seconds)
        detail = {
            "events": truth["events"], "trace_bytes": truth["bytes"],
            "trace_sha256": gen.sha256_file(path),
            "rotations": len(rotations), "problems": problems,
            "tail_percentile": TAIL_PERCENTILE,
            "report_ms": {
                tool: harness.timing_summary(
                    [ms for t, s, ms in op_ms if t == tool and not s])
                for tool in TOOLS},
        }
        result = {"attempted": (len(rotations) + 1) * len(TOOLS),
                  "failed": failed, "detail": detail, "setup_s": setup_s}
        if ctx.tracer is None:
            p50, tail = harness.op_latency([r[2] for r in rotations],
                                           TAIL_PERCENTILE)
            result["metrics"] = {
                "events_per_s": harness.median([r[1] for r in rotations]),
                "op_p50_ms": p50, "op_tail_ms": tail,
            }
        else:
            result["metrics"] = _layer_metrics(ctx, truth, op_ms, work)
        return result


def _layer_metrics(ctx, truth, op_ms, work):
    spans = ctx.tracer.spans
    events = truth["events"]

    def med_ns(span):
        return harness.median(harness.span_ns(spans, span))

    load = med_ns("core.writer.load_records")
    decode = med_ns("core.columnar.decode_records")
    stages, wall_ns, _share = harness.ledger(spans)
    out = {
        "core.writer.load_ns_per_event": load / events,
        "core.writer.load_mb_per_s": truth["bytes"] / 1e6 / (load / 1e9),
        "core.columnar.decode_ns_per_event": decode / events,
        "core.columnar.as_batch_ns_per_event":
            med_ns("core.columnar.as_batch") / events,
        "core.columnar.decode_share":
            stages["core.columnar.decode_records"]["self_ns"] / wall_ns,
    }
    overheads = []
    for tool, (stage, _render) in LIBRARY.items():
        out[stage + "_ms"] = med_ns(stage) / 1e6
        cli = [ms for t, s, ms in op_ms if t == tool and not s]
        lib = [ms for t, s, ms in op_ms if t == tool and s]
        if cli and lib:
            overheads.append(harness.median(cli) - harness.median(lib))
    if overheads:
        out["cli.overhead_ms"] = harness.median(overheads)
        cli_all = [ms for t, s, ms in op_ms if t in LIBRARY and not s]
        lib_all = [ms for t, s, ms in op_ms if t in LIBRARY and s]
        out["trace_overhead_ratio"] = (harness.median(lib_all)
                                       / harness.median(cli_all))

    # One-off probes, outside the rotations: the file writer, and what
    # --workers 2 buys on this machine (reported with nproc, never gated).
    records = truth["records"]
    scratch = os.path.join(work, "save-probe.k42")
    save_ns, par_ns, ping_ns = [], [], []
    for _ in range(PROBE_REPS):
        t0 = harness.now_ns()
        save_records(scratch, records)
        save_ns.append(harness.now_ns() - t0)
    loaded = load_records(truth["path"])
    try:
        for _ in range(PROBE_REPS + 1):  # the first builds the pool
            t0 = harness.now_ns()
            decode_records_columnar_parallel(
                loaded, registry=default_registry(), workers=2)
            par_ns.append(harness.now_ns() - t0)
            t0 = harness.now_ns()
            pool.run_tasks(abs, [0, 1], workers=2)
            ping_ns.append(harness.now_ns() - t0)
    finally:
        pool.shutdown()
    out["core.writer.save_ns_per_event"] = harness.median(save_ns) / events
    out["core.parallel.decode_workers2_ms"] = harness.median(par_ns[1:]) / 1e6
    out["core.parallel.speedup_vs_1"] = decode / harness.median(par_ns[1:])
    out["core.pool.roundtrip_ms"] = harness.median(ping_ns[1:]) / 1e6
    return out
