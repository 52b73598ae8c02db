"""repro-trace — command-line front end to the analysis tools.

A downstream user's workflow: run a simulation (or collect buffers from
an embedding application), ``save_records`` them to a ``.k42`` trace
file, optionally save the symbol table as JSON, then analyze offline::

    repro-trace info trace.k42
    repro-trace verify trace.k42
    repro-trace list trace.k42 --limit 40 --name TRC_SYSCALL_ENTER
    repro-trace kmon trace.k42 --mark TRC_USER_RETURNED_MAIN --svg out.svg
    repro-trace kmon trace.k42 --interactive      # zoom/mark/click REPL
    repro-trace follow live.k42 --tool kmon --window-events 20000
    repro-trace follow --shm k42-region --tool sched
    repro-trace follow trace.k42 --replay 2x --tool locks
    repro-trace locks trace.k42 --symbols syms.json --sort time --top 10
    repro-trace holds trace.k42 --symbols syms.json
    repro-trace profile trace.k42 --symbols syms.json --pid 1
    repro-trace breakdown trace.k42 --symbols syms.json --pid 2
    repro-trace compare before.k42 after.k42 --symbols syms.json
    repro-trace histogram trace.k42
    repro-trace memprofile trace.k42 --symbols syms.json
    repro-trace iostats trace.k42
    repro-trace crashdump core.img
    repro-trace doctor damaged.k42               # damage + salvage report
    repro-trace inject trace.k42 bad.k42 --kind header-bitflip --seed 7
    repro-trace export-ltt trace.k42 --cpu 0 -o cpu0.ltt
    repro-trace pack trace.k42 trace.store --shard-events 16384
    repro-trace query trace.store --cpu 1 --start 0.0 --end 0.5 --limit 20
    repro-trace query trace.store --aggregate name --top 10
    repro-trace query trace.store --name TRC_LOCK_CONTEND_START \
        --project seconds,cpu,pid,data0
    repro-trace locks trace.store --store      # any tool reads a store
    repro-trace merge node-*.k42 -o fleet.store --tool locks
    repro-trace fleet-run -o /tmp/fleet --nodes 3 --tool sched
    repro-trace query fleet.store --node 1 --name TRC_LOCK_CONTEND_START
    repro-trace check --writers 2 --events 2 --preemption-bound 2
    repro-trace check --mutant reset-on-book --save counterexample.json
    repro-trace check --replay counterexample.json
    repro-trace check --shm --shm-cpus 2 --collector-steps 2
    repro-trace check --mutant stale-attach-offset
    repro-trace shm-demo --writers 4 --events 2000 -o /tmp/shm.k42

The report subcommands (``list`` ... ``iostats``) and ``follow``,
``merge`` and ``fleet-run --tool`` are generated from one table of tools,
:mod:`repro.reports`, and all call the tool's one ``report(trace, sym,
opts)``.  What a row cannot say is a small explicit handler here: ``kmon
--interactive/--mark/--zoom/--svg``, ``breakdown``'s exit status 1,
``info``'s frame count.

Every trace-analysis subcommand accepts ``--strict`` (stop at the first
damage instead of resynchronizing past it) and reads in one process: a
``.k42`` decodes through the one in-process decoder
(:func:`repro.core.columnar.decode_records_columnar`), and each loads its
trace through one function (:func:`repro.fleet.merge.ingest_source`), so
each reads a packed store directory (``repro-trace pack``) in place of a
raw trace with byte-identical output; the store-capable ones (``info``
and the ``store`` rows) also take ``--store`` to insist on it.
``query`` reads only the shards whose min/max statistics overlap the
predicate.  ``pack --workers N`` is the one worker-pool knob: it fans
out the shard writes, never a read.
"""

from __future__ import annotations

import argparse
import functools
import sys
from typing import Callable, List, Optional

import numpy as np

from repro.core.columnar import decode_records_columnar
from repro.core.registry import default_registry
from repro.core.writer import load_records
from repro.reports import FLEET_TOOLS, REPORTS, TOOL_OPTIONS, entry, opt
from repro.store.query import PROJECTABLE
from repro.store.writer import DEFAULT_SHARD_EVENTS


def _decode(records, strict: bool = False):
    """Decode records into a :class:`~repro.core.columnar.ColumnarTrace`;
    ``strict`` stops at the first garbled event per buffer instead of
    resynchronizing past damage (``--strict``)."""
    return decode_records_columnar(records, registry=default_registry(),
                                   strict=strict)


def _ingest(args, path: Optional[str] = None):
    """``(trace, source facts)`` of ``path`` (default ``args.trace``), as
    every subcommand that analyses a trace loads it: a ``.k42`` file, a
    store directory or ``shm:NAME`` alike, under the flags it has."""
    from repro.fleet.merge import ingest_source

    return ingest_source(path if path is not None else args.trace,
                         registry=default_registry(), strict=args.strict,
                         store=getattr(args, "store", False))


def _load(args, path: Optional[str] = None):
    """:func:`_ingest`'s trace alone."""
    return _ingest(args, path)[0]


def _load_symbols(path: Optional[str]):
    from repro.ksim.kernel import SymbolTable

    return SymbolTable() if path is None else SymbolTable.load(path)


def cmd_report(args) -> int:
    """Any row of :data:`REPORTS`, post-mortem: symbols, trace, report."""
    sym = _load_symbols(getattr(args, "symbols", None))
    print(entry(args.command)(_load(args), sym, args))
    return 0


def _tool_report(args) -> Callable[..., str]:
    """``--tool``'s report.  Where the rows disagree on a default
    (``--top`` is 10, 20, 10) the shared declaration
    (:data:`~repro.reports.TOOL_OPTIONS`) says None, and the chosen
    row's own default is filled in here."""
    for flags, kw in REPORTS[args.tool].options:
        dest = flags[0].lstrip("-").replace("-", "_")
        if getattr(args, dest) is None:
            setattr(args, dest, kw.get("default"))
    return entry(args.tool)


def fleet_report(args, view) -> str:
    """``--tool`` over a merged fleet view: the row's report per node
    (each section identical to that node's trace reported alone), then
    its rollup."""
    from repro.fleet.merge import fleet_sections

    report, sym = _tool_report(args), _load_symbols(args.symbols)
    rollup = entry(args.tool, "fleet_rollup")
    return fleet_sections(view, lambda trace: report(trace, sym, args),
                          lambda: rollup(view, sym, args))


def cmd_info(args) -> int:
    trace, source = _ingest(args)
    print(f"trace file: {args.trace}")
    print(f"frames: {source.get('frames', 0)}  "
          f"buffer words: {source.get('buffer_words', 0)}")
    b = trace.batch()
    print(f"cpus: {trace.cpus}")
    print(f"events: {len(b)}  anomalies: {len(trace.anomalies)}")
    t_idx = np.flatnonzero(b.timed)
    if len(t_idx):
        tvals = b.time[t_idx]
        if tvals.dtype == object:
            tl = tvals.tolist()
            t_min, t_max = min(tl), max(tl)
        else:
            t_min, t_max = int(tvals.min()), int(tvals.max())
        span = (t_max - t_min) / 1e9
        print(f"time span: {span:.6f} s "
              f"({t_min:,} .. {t_max:,} cycles)")
    maj, first, cnt = np.unique(b.major, return_index=True,
                                return_counts=True)
    # Most frequent major first; first-seen breaks ties.
    for i in sorted(range(len(maj)), key=lambda i: (-cnt[i], first[i])):
        print(f"  major {int(maj[i]):>2}: {int(cnt[i]):>8} events")
    return 0


def cmd_verify(args) -> int:
    from repro.tools.anomaly import verify_trace

    report = verify_trace(_load(args))
    print(report.describe())
    return 0 if report.ok else 1


def cmd_kmon(args) -> int:
    """The ``kmon`` row, plus what needs the timeline object itself: an
    interactive session, marks, a zoom, an SVG."""
    if not (args.interactive or args.mark or args.zoom or args.svg):
        return cmd_report(args)
    if args.interactive:
        from repro.tools.kmon_session import KmonSession

        sym = _load_symbols(args.symbols)
        KmonSession(_load(args), sym.process_names).run(sys.stdin, sys.stdout)
        return 0
    from repro.tools.kmon import Timeline

    tl = Timeline(_load(args))
    if args.mark:
        tl.mark(*args.mark)
    if args.zoom:
        tl = tl.zoom(args.zoom[0], args.zoom[1])
    print(tl.render(width=args.width))
    if args.svg:
        with open(args.svg, "w") as fh:
            fh.write(tl.render_svg())
        print(f"SVG written to {args.svg}")
    return 0


def cmd_breakdown(args) -> int:
    """The ``breakdown`` row; ``--pid`` of a process the trace never ran
    is exit status 1."""
    from repro.tools.breakdown import UnknownPid

    try:
        return cmd_report(args)
    except UnknownPid as exc:
        print(exc, file=sys.stderr)
        return 1


def cmd_follow(args) -> int:
    """Follow a live trace — file tail, shm region, or paced replay."""
    from repro.live.monitor import LiveMonitor
    from repro.live.source import (
        Replayer,
        ShmFollower,
        TraceFileFollower,
        parse_speed,
    )

    sym = _load_symbols(args.symbols)
    report = _tool_report(args)
    region = None
    follower = None
    if args.shm:
        from repro.shm.region import ShmTraceRegion

        region = ShmTraceRegion.attach(args.shm)
        source = ShmFollower(region, lag=args.lag)
    elif args.trace is None:
        raise ValueError("follow needs a trace file or --shm NAME")
    elif args.replay is not None:
        source = Replayer(load_records(args.trace, strict=args.strict),
                          speed=parse_speed(args.replay))
    else:
        source = follower = TraceFileFollower(args.trace)

    monitor = LiveMonitor(registry=default_registry(),
                          window_events=args.window_events,
                          strict=args.strict)
    on_update = None
    if args.refresh:
        def on_update(m):
            print(report(m.trace(), sym, args), file=sys.stderr)
            print(m.describe(), file=sys.stderr)
    try:
        monitor.drain(source,
                      poll_interval_s=args.poll_interval,
                      idle_timeout_s=args.idle_timeout,
                      max_polls=args.max_polls,
                      on_update=on_update)
    finally:
        if region is not None:
            region.close()
        if follower is not None:
            follower.close()
    print(report(monitor.trace(), sym, args))
    print(monitor.describe(), file=sys.stderr)
    for issue in getattr(source, "issues", []):
        print(f"file issue: {issue}", file=sys.stderr)
    return 0


def cmd_compare(args) -> int:
    from repro.tools.compare import compare_traces, format_comparison

    sym = _load_symbols(args.symbols)
    comparison = compare_traces(
        _load(args, args.before),
        _load(args, args.after),
        sym.pc_names,
    )
    print(format_comparison(comparison, sym.lock_names, top=args.top))
    return 0


def cmd_crashdump(args) -> int:
    from repro.core.crashdump import read_dump
    from repro.tools.listing import format_event

    with open(args.dump, "rb") as fh:
        dump = read_dump(fh)
    if not dump.intact:
        for issue in dump.issues:
            print(f"dump issue (cpu section {issue.cpu}): {issue.detail}",
                  file=sys.stderr)
    b = _decode(dump.records, strict=args.strict).batch()
    rows = np.flatnonzero(~b.control_mask())
    print(f"flight recorder: {len(rows)} events recovered from "
          f"{len(dump.records)} buffers on {dump.ncpus} cpus")
    for e in b.events(rows[-args.last:]):
        print(format_event(e))
    return 0 if dump.intact else 1


def cmd_doctor(args) -> int:
    """Damage report: file issues, anomalies, and what recovery salvaged."""
    from repro.core.writer import TraceFileReader
    from repro.tools.anomaly import verify_trace

    with open(args.trace, "rb") as fh:
        try:
            reader = TraceFileReader(fh, strict=args.strict)
            records = reader.read_all()
        except (ValueError, EOFError) as exc:
            raise type(exc)(f"{args.trace}: {exc}") from None
    print(f"trace file: {args.trace}")
    print("read path: " + ("mmap (zero-copy)" if reader.read_path == "mmap"
                           else "read() (buffered)"))
    print(f"frames read: {len(records)}")
    if reader.issues:
        print(f"file-level damage ({len(reader.issues)} issues):")
        for issue in reader.issues:
            print(f"  {issue}")
    else:
        print("file-level damage: none")
    if reader.tail_state == "growing":
        print(f"note: {reader.trailing_bytes}-byte partial frame at EOF "
              f"looks like an in-progress write, not damage "
              f"(follow it with `repro-trace follow`)")

    strict_trace = _decode(records, strict=True)
    trace = strict_trace if args.strict else _decode(records)
    report = verify_trace(trace)
    n_strict = len(strict_trace.batch())
    print(report.describe())
    if not args.strict and report.total_events > n_strict:
        print(f"recovery salvaged {report.total_events - n_strict} events "
              f"that strict decoding would discard "
              f"({n_strict} -> {report.total_events})")
    clean = report.ok and not reader.issues
    return 0 if clean else 1


def cmd_inject(args) -> int:
    """Deterministically corrupt a trace/dump for testing the read path."""
    from repro.core.faults import (
        DUMP_KINDS,
        FILE_KINDS,
        FaultInjector,
        InjectionReport,
    )
    from repro.core.writer import save_records

    injector = FaultInjector(args.seed)
    report: InjectionReport
    if args.kind in FILE_KINDS:
        with open(args.input, "rb") as fh:
            data = fh.read()
        out, report = injector.inject_trace_bytes(data, args.kind)
        with open(args.output, "wb") as fh:
            fh.write(out)
    elif args.kind in DUMP_KINDS:
        with open(args.input, "rb") as fh:
            data = fh.read()
        out, report = injector.inject_dump_bytes(data, args.kind)
        with open(args.output, "wb") as fh:
            fh.write(out)
    else:
        records = load_records(args.input)
        damaged, report = injector.inject_records(records, args.kind)
        save_records(args.output, damaged,
                     buffer_words=len(records[0].words) if records else None)
    print(report.describe())
    print(f"damaged copy written to {args.output}")
    return 0


def _source_name(path: str) -> str:
    """How a store's manifest names an input: its basename (``shm:NAME``
    as given), so a store does not depend on where it was made."""
    import os

    if path.startswith("shm:"):
        return path
    return os.path.basename(os.path.normpath(path))


def cmd_pack(args) -> int:
    """Pack a trace into a persistent columnar store directory."""
    import os

    from repro.store.writer import pack_trace

    records = load_records(args.trace, strict=args.strict)
    trace = _decode(records, strict=args.strict)
    res = pack_trace(
        trace, args.output,
        shard_events=args.shard_events,
        compress=not args.no_compress,
        source={
            "path": _source_name(args.trace),
            "frames": len(records),
            "buffer_words": len(records[0].words) if records else 0,
        },
        force=args.force,
        workers=args.workers,
    )
    raw = os.path.getsize(args.trace)
    ratio = res.bytes_written / raw if raw else 0.0
    print(f"packed {args.trace} -> {res.path}")
    print(f"events: {res.events}  shards: {res.shards}  "
          f"cpus: {res.cpus}  anomalies: {res.anomalies}")
    print(f"bytes: {res.bytes_written:,} "
          f"({ratio:.2f}x of the raw trace's {raw:,})")
    return 0


def cmd_query(args) -> int:
    """Query a packed store with predicate pushdown."""
    from repro.store import Predicate, TraceStore
    from repro.store.query import aggregate, project
    from repro.tools.listing import format_event

    store = TraceStore(args.store, registry=default_registry())
    pred = Predicate(
        cpus=tuple(args.cpu) if args.cpu else None,
        nodes=tuple(args.node) if args.node else None,
        majors=tuple(args.major) if args.major else None,
        minors=tuple(args.minor) if args.minor else None,
        names=tuple(args.name) if args.name else None,
        pid=args.pid,
        start_s=args.start,
        end_s=args.end,
        min_data=args.min_data,
        timed_only=args.timed_only,
        include_control=args.control,
    )
    qr = store.query(pred)
    order = qr.batch.order_by_time()
    if args.aggregate:
        for count, key in aggregate(qr.batch, by=args.aggregate,
                                    pid=qr.pid,
                                    pid_known=qr.pid_known)[: args.top]:
            print(f"{count:>8} {key}")
    elif args.project:
        cols = [c.strip() for c in args.project.split(",") if c.strip()]
        sel = order if args.limit is None else order[: args.limit]
        data = project(qr.batch, cols, sel=sel,
                       pid=qr.pid, pid_known=qr.pid_known)
        print("\t".join(cols))
        for row in zip(*(data[c] for c in cols)):
            print("\t".join(str(v) for v in row))
    else:
        sel = order if args.limit is None else order[: args.limit]
        for e in qr.batch.events(sel):
            print(format_event(e))
    print(f"store: read {qr.shards_read}/{qr.shards_total} shards "
          f"({qr.shards_pruned} pruned by statistics), "
          f"{qr.rows_scanned} rows scanned, {len(qr)} matched",
          file=sys.stderr)
    # Per-node accounting exists only for fleet stores, so single-node
    # stores keep byte-identical stdout *and* stderr.
    for node in sorted(qr.node_shards):
        read, total = qr.node_shards[node]
        print(f"  node {node}: read {read}/{total} shards",
              file=sys.stderr)
    return 0


def _print_fleet_summary(view) -> None:
    s = view.summary()
    print(f"fleet: {len(s['nodes'])} nodes, {s['events']} events, "
          f"residual skew bound <= {s['skew_bound']} cycles")
    for node in view.nodes:
        info = s["per_node"][str(node)]
        basis = "anchored" if info["aligned"] else "identity"
        cpus = ",".join(str(c) for c in info["cpus"])
        print(f"  node {node}: {info['events']} events, cpus [{cpus}], "
              f"{info['anomalies']} anomalies, {basis} clock")


def cmd_merge(args) -> int:
    """Merge N per-node traces into one clock-aligned fleet view."""
    from repro.fleet.merge import merge_paths, pack_fleet_view

    view = merge_paths(args.traces, registry=default_registry(),
                       strict=args.strict)
    if args.tool:
        print(fleet_report(args, view))
    else:
        _print_fleet_summary(view)
    if args.output:
        res = pack_fleet_view(
            view, args.output,
            shard_events=args.shard_events,
            compress=not args.no_compress,
            source={"paths": [_source_name(p) for p in args.traces]},
            force=args.force,
        )
        print(f"packed fleet store: {res.path} "
              f"({res.events} events, {res.shards} shards, "
              f"nodes {view.nodes})")
    return 0


def cmd_fleet_run(args) -> int:
    """Launch K node workloads end to end and merge their traces."""
    from repro.fleet.launch import fleet_run

    result = fleet_run(
        args.out_dir,
        nodes=args.nodes,
        start_method=args.start_method,
        seed=args.seed,
        ncpus=args.ncpus,
        workers_per_cpu=args.workers_per_cpu,
        iterations=args.iterations,
    )
    for nr in result.node_results:
        print(f"node {nr.node}: {nr.trace_path}")
    _print_fleet_summary(result.view)
    if args.tool:
        print(fleet_report(args, result.view))
    return 0


def _print_schedule(outcome) -> None:
    """Render a counterexample schedule step by step."""
    for point in outcome.points:
        kind, tid = point.choice
        label = point.labels.get(tid, "?")
        mark = "kill" if kind == "kill" else "run "
        print(f"  step {point.step:>3}: {mark} task {tid} @ {label}")


def cmd_check(args) -> int:
    """Model-check the lockless reserve/commit protocol."""
    from repro.check import (
        CheckConfig,
        MUTANTS,
        explore_exhaustive,
        explore_random,
        load_script,
        save_script,
    )
    from repro.check.harness import ConfigError, ReplayDivergence
    from repro.check.mutants import LOGGER
    from repro.check.script import ScheduleScript

    # Logger mutants first, then those of the shm seams around it.
    listed = sorted(MUTANTS.values(),
                    key=lambda m: (m.seam != LOGGER, m.name))
    if args.list_mutants:
        for spec in listed:
            seam = "" if spec.seam == LOGGER else " [shm seam]"
            print(f"{spec.name:<22} {spec.summary}{seam}")
            print(f"{'':<22} expected: {', '.join(spec.expected)}")
        return 0

    if args.replay:
        script = load_script(args.replay)
        cfg = script.config
        print(f"replaying {args.replay}: {len(script.choices)} choices, "
              f"mutant={cfg.mutant or 'none'}")
        try:
            outcome = script.replay()
        except ReplayDivergence as exc:
            print(f"REPLAY DIVERGED: {exc}", file=sys.stderr)
            return 2
        if outcome.violation is not None:
            v = outcome.violation
            print(f"reproduced: {v.invariant}")
            print(f"  {v.detail}")
            _print_schedule(outcome)
            return 1
        if script.violation is not None:
            print("REPLAY DIVERGED: the script records violation "
                  f"{script.violation.get('invariant')!r} but the replay "
                  "ran clean (code under test changed?)", file=sys.stderr)
            return 2
        print("replay completed: no violation")
        return 0

    # Resolve the configuration: explicit flags beat the mutant's
    # recommended settings, which beat the built-in defaults.
    spec = None
    if args.mutant is not None:
        spec = MUTANTS.get(args.mutant)
        if spec is None:
            print(f"unknown mutant {args.mutant!r}; known: "
                  f"{', '.join(m.name for m in listed)}", file=sys.stderr)
            return 2
    defaults = {
        "writers": 2, "events": 2, "data_words": 1, "buffer_words": 8,
        "num_buffers": 8, "kills": 0, "reader": False, "reader_steps": 3,
        "preemption_bound": 2,
        "shm": False, "shm_cpus": 1, "collector_steps": 0,
        "rivals": 0, "pid_reuse": False,
    }
    if spec is not None:
        defaults.update(spec.config)

    def pick(name):  # rivals/pid_reuse have no flag: a mutant sets them
        value = getattr(args, name, None)
        return defaults[name] if value is None else value

    preemption_bound = pick("preemption_bound")
    cfg = CheckConfig(
        writers=pick("writers"),
        events=pick("events"),
        data_words=pick("data_words"),
        buffer_words=pick("buffer_words"),
        num_buffers=pick("num_buffers"),
        kills=pick("kills"),
        reader=bool(pick("reader")),
        reader_steps=pick("reader_steps"),
        mutant=args.mutant,
        shm=bool(pick("shm")),
        shm_cpus=pick("shm_cpus"),
        collector_steps=pick("collector_steps"),
        rivals=pick("rivals"),
        pid_reuse=pick("pid_reuse"),
    )
    try:
        cfg.validate()
    except ConfigError as exc:
        print(f"bad configuration: {exc}", file=sys.stderr)
        return 2

    shm_note = (f" shm=True shm-cpus={cfg.shm_cpus} "
                f"collector-steps={cfg.collector_steps}"
                + (f" rivals={cfg.rivals}" if cfg.rivals else "")
                if cfg.shm else "")
    print(f"mode={args.mode} writers={cfg.writers} events={cfg.events} "
          f"data-words={cfg.data_words} buffer-words={cfg.buffer_words} "
          f"num-buffers={cfg.num_buffers} kills={cfg.kills} "
          f"reader={cfg.reader} mutant={cfg.mutant or 'none'}{shm_note}")
    if args.mode == "exhaustive":
        print(f"preemption bound {preemption_bound}"
              + (f", max {args.max_schedules} schedules"
                 if args.max_schedules else ""))
        result = explore_exhaustive(
            cfg, preemption_bound=preemption_bound,
            max_schedules=args.max_schedules,
        )
    else:
        print(f"{args.schedules} randomized schedules, seed {args.seed}, "
              f"depth {args.depth}")
        result = explore_random(
            cfg, schedules=args.schedules, seed=args.seed, depth=args.depth,
        )

    print(f"schedules explored: {result.schedules}   "
          f"steps: {result.steps}")
    if result.passed:
        if result.truncated:
            print(f"stopped at --max-schedules={args.max_schedules} "
                  "without a violation (NOT a proof)")
        elif args.mode == "exhaustive":
            print(f"all interleavings pass "
                  f"(preemption bound {preemption_bound})")
        else:
            print("no violation found")
        return 0

    v = result.violation
    print(f"\nVIOLATION: {v.invariant}")
    print(f"  {v.detail}")
    if result.mode == "random" and result.iteration is not None:
        print(f"  found at seed {result.seed} iteration {result.iteration}")
    mini = result.counterexample
    print(f"minimized counterexample: {mini.steps} steps, "
          f"{mini.preemptions} preemption(s), {mini.kills} kill(s) "
          f"(first found at {result.original.steps} steps)")
    _print_schedule(mini)
    if args.save:
        note = (f"found by repro-trace check --mode {args.mode}; "
                f"mutant={cfg.mutant or 'none'}")
        save_script(ScheduleScript.from_outcome(mini, note=note), args.save)
        print(f"counterexample written to {args.save}")
        print(f"replay with: repro-trace check --replay {args.save}")
    return 1


def cmd_shm_demo(args) -> int:
    """Run the real cross-process scenario end to end."""
    from repro.shm import run_shm_workload
    from repro.shm.procs import expected_payloads

    result = run_shm_workload(
        args.output,
        writers=args.writers,
        events=args.events,
        data_words=args.data_words,
        buffer_words=args.buffer_words,
        num_buffers=args.num_buffers,
        start_method=args.start_method,
        concurrent_collector=not args.post_drain,
    )
    stats = result.collector
    print(f"{result.writers} writer processes x {result.events_per_writer} "
          f"events ({result.start_method} start method, "
          f"{'concurrent' if result.concurrent_collector else 'post-quiesce'}"
          f" collector) in {result.elapsed_s:.3f}s")
    print(f"collector: {stats.get('frames', 0)} frames "
          f"({stats.get('partial_frames', 0)} partial), "
          f"{stats.get('dropped', 0)} dropped, "
          f"{stats.get('polls', 0)} polls, "
          f"{stats.get('unstable_copies', 0)} unstable copies")
    print(f"trace written to {result.trace_path}")

    dropped = int(stats.get("dropped", 0))
    trace = _decode(load_records(args.output))
    anomalies = [a for a in trace.anomalies if a.kind != "missing-anchor"]
    b = trace.batch()
    # Writer w logs TEST events with minor w + 1 on CPU w.
    mine = ((b.major == 1) & (b.minor >= 1) & (b.minor <= args.writers)
            & (b.cpu < args.writers))
    got = dict(enumerate(np.bincount(b.minor[mine] - 1,
                                     minlength=args.writers).tolist()))
    total = sum(got.values())
    print(f"decoded {total}/{result.events_total} TEST events, "
          f"{len(anomalies)} anomalies")
    if anomalies:
        a = anomalies[0]
        print(f"FAIL: anomaly {a.kind} in cpu {a.cpu} seq {a.seq}: "
              f"{a.detail}", file=sys.stderr)
        return 1
    if dropped == 0 and total != result.events_total:
        issued = expected_payloads(args.writers, args.events,
                                   args.data_words)
        missing = {w: args.events - got[w] for w in got if
                   got[w] != len(issued[w])}
        print(f"FAIL: no drops reported but events missing: {missing}",
              file=sys.stderr)
        return 1
    if dropped:
        print(f"note: ring lapped the collector {dropped} time(s); "
              f"enlarge --num-buffers for a complete trace")
    return 0


def cmd_export_ltt(args) -> int:
    """Export one CPU; a stream the format cannot encode (time stepping
    backwards past damage) is refused before the output is written."""
    import io

    from repro.ltt.export import export_ltt

    trace = _load(args).to_trace()
    buf = io.BytesIO()
    try:
        written = export_ltt(trace, cpu=args.cpu, fh=buf)
    except ValueError as exc:
        raise ValueError(f"{args.trace}: {exc}") from None
    with open(args.output, "wb") as fh:
        fh.write(buf.getvalue())
    print(f"{written} events exported to {args.output} (cpu {args.cpu})")
    return 0


def _declare(sp, options) -> None:
    for flags, kw in options:
        sp.add_argument(*flags, **kw)


#: The read-path flags; a subcommand takes the ones its handler reads.
_COMMON = {
    "strict": opt("--strict", action="store_true",
                  help="stop at the first damage (garbled event, bad "
                       "frame) instead of resynchronizing past it"),
    "store": opt("--store", action="store_true",
                 help="treat TRACE as a packed store directory (see "
                      "repro-trace pack); store directories are also "
                      "auto-detected"),
}
#: What ``pack`` and ``merge -o`` take to write a store.
_STORE_WRITE = (
    opt("--shard-events", type=int, default=DEFAULT_SHARD_EVENTS,
        metavar="N",
        help="target events per shard; shards are cut only at buffer "
             "boundaries (default %(default)s)"),
    opt("--no-compress", action="store_true",
        help="write uncompressed npz shards"),
    opt("--force", action="store_true",
        help="overwrite an existing store directory"),
)


#: ``fleet-run``'s nodes and ``shm-demo``'s writers start the same way.
_START_METHOD = opt("--start-method", choices=("fork", "spawn"),
                    default=None, dest="start_method",
                    help="multiprocessing start method of the child "
                         "processes (default: platform default)")


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="repro-trace",
        description="K42-style trace analysis (see module docstring)",
    )
    sub = p.add_subparsers(dest="command", required=True)

    def add(name, fn, common="strict", **kw):
        sp = sub.add_parser(name, **kw)
        sp.set_defaults(fn=fn)
        _declare(sp, (_COMMON[key] for key in common.split()))
        return sp

    def add_tool_flags(sp, help, default=None):
        sp.add_argument("--tool", default=default, help=help,
                        choices=FLEET_TOOLS)
        _declare(sp, TOOL_OPTIONS)

    sp = add("info", cmd_info, "strict store",
             help="trace file summary")
    sp.add_argument("trace")

    sp = add("verify", cmd_verify, help="check trace integrity (§3.1)")
    sp.add_argument("trace")

    for name, row in REPORTS.items():
        sp = add(name, cmd_report,
                 "strict store" if row.store else "strict",
                 help=row.help)
        sp.add_argument("trace")
        _declare(sp, row.options)

    # What a row cannot say stays an explicit handler over it.
    sub.choices["breakdown"].set_defaults(fn=cmd_breakdown)
    sp = sub.choices["kmon"]
    sp.set_defaults(fn=cmd_kmon)
    sp.add_argument("--mark", action="append")
    sp.add_argument("--zoom", type=float, nargs=2,
                    metavar=("START_S", "END_S"))
    sp.add_argument("--svg")
    sp.add_argument("--interactive", action="store_true",
                    help="command-driven session (zoom/mark/click/...)")

    sp = add("pack", cmd_pack,
             help="pack a trace into a compressed columnar store")
    sp.add_argument("trace")
    sp.add_argument("output", help="store directory to create")
    _declare(sp, _STORE_WRITE)
    sp.add_argument("--workers", type=int, default=1, metavar="N",
                    help="write shards on N worker processes (0 = one "
                         "per CPU core); the store is byte-identical")

    sp = add("query", cmd_query, "",
             help="query a packed store with predicate pushdown")
    sp.add_argument("store", help="store directory (from repro-trace pack)")
    sp.add_argument("--cpu", type=int, action="append",
                    help="restrict to CPU N (repeatable)")
    sp.add_argument("--node", type=int, action="append",
                    help="fleet store: restrict to node N (repeatable); "
                         "other nodes' shards are pruned unopened")
    sp.add_argument("--major", type=int, action="append",
                    help="restrict to major ID (repeatable)")
    sp.add_argument("--minor", type=int, action="append",
                    help="restrict to minor ID (repeatable)")
    sp.add_argument("--name", action="append",
                    help="restrict to event name (repeatable)")
    sp.add_argument("--pid", type=int,
                    help="restrict to events executed in pid context")
    sp.add_argument("--start", type=float, metavar="S",
                    help="window start in seconds")
    sp.add_argument("--end", type=float, metavar="S",
                    help="window end in seconds")
    sp.add_argument("--min-data", type=int, default=0, metavar="N",
                    help="require at least N payload words")
    sp.add_argument("--timed-only", action="store_true",
                    help="only events carrying a timestamp")
    sp.add_argument("--control", action="store_true",
                    help="include infrastructure events")
    sp.add_argument("--limit", type=int,
                    help="print at most N events/rows")
    sp.add_argument("--project", metavar="COLS",
                    help="comma-separated columns to emit as TSV "
                         f"(from: {', '.join(PROJECTABLE)}, dataK)")
    sp.add_argument("--aggregate",
                    choices=("name", "major", "minor", "cpu", "pid"),
                    help="count events grouped by a column instead of "
                         "listing them")
    sp.add_argument("--top", type=int, default=30,
                    help="rows shown with --aggregate (default 30)")

    sp = add("merge", cmd_merge, "strict",
             help="merge N per-node traces into one clock-aligned fleet "
                  "view (each a .k42 file, a store directory, or shm:NAME)")
    sp.add_argument("traces", nargs="+",
                    help="per-node traces; a .anchors.json sidecar "
                         "supplies node id + clock anchors, otherwise "
                         "the path's position is its node id with the "
                         "identity clock")
    sp.add_argument("-o", "--output", metavar="DIR",
                    help="also pack the unified view into a store "
                         "directory (queryable with query --node)")
    _declare(sp, _STORE_WRITE)
    add_tool_flags(sp, help="render this tool's per-node + fleet-rollup "
                            "report instead of the merge summary")

    sp = add("fleet-run", cmd_fleet_run, "",
             help="launch K node workloads as local processes, then merge "
                  "their per-node traces into one fleet view")
    sp.add_argument("-o", "--out-dir", required=True, dest="out_dir",
                    help="directory for per-node traces + anchor "
                         "sidecars")
    sp.add_argument("--nodes", type=int, default=2, metavar="K",
                    help="node count (default 2)")
    _declare(sp, [_START_METHOD])
    sp.add_argument("--seed", type=int, default=2003,
                    help="master seed; per-node workload seeds and "
                         "clock offsets/rates derive from it")
    sp.add_argument("--ncpus", type=int, default=2,
                    help="simulated CPUs per node (default 2)")
    sp.add_argument("--workers-per-cpu", type=int, default=2,
                    dest="workers_per_cpu",
                    help="workload threads per CPU (default 2)")
    sp.add_argument("--iterations", type=int, default=30,
                    help="workload iterations per thread (default 30)")
    add_tool_flags(sp, help="also render this tool over the merged view")

    sp = add("follow", cmd_follow, "strict",
             help="follow a growing trace live (file tail, shm region, or "
                  "paced replay) and render a tool over a bounded window")
    sp.add_argument("trace", nargs="?",
                    help="trace file to tail (omit with --shm)")
    sp.add_argument("--shm", metavar="NAME",
                    help="follow a live shared-memory region instead of "
                         "a file (attach by segment name)")
    add_tool_flags(sp, default="kmon",
                   help="which analysis to render over the live window")
    sp.add_argument("--replay", metavar="SPEED",
                    help="treat the (complete) trace as a live source "
                         "replayed at SPEED: instant, realtime, or Nx")
    sp.add_argument("--window-events", type=int, default=None, metavar="N",
                    dest="window_events",
                    help="flight-recorder bound: keep roughly the most "
                         "recent N events (default: unbounded)")
    sp.add_argument("--poll-interval", type=float, default=0.05,
                    dest="poll_interval", metavar="S",
                    help="seconds between polls when no data is arriving")
    sp.add_argument("--idle-timeout", type=float, default=1.0,
                    dest="idle_timeout", metavar="S",
                    help="stop after S seconds with no new data "
                         "(file following has no done marker)")
    sp.add_argument("--max-polls", type=int, default=None,
                    dest="max_polls", metavar="N",
                    help="hard cap on polls (mostly for tests)")
    sp.add_argument("--lag", type=int, default=1,
                    help="shm: completed buffers held back from live "
                         "polls (collector lag)")
    sp.add_argument("--refresh", action="store_true",
                    help="print a snapshot to stderr after every poll "
                         "that brought data")

    sp = add("compare", cmd_compare,
             help="diff two traces of the same workload (the §4 tuning loop)")
    sp.add_argument("before")
    sp.add_argument("after")
    sp.add_argument("--symbols")
    sp.add_argument("--top", type=int, default=5)

    sp = add("crashdump", cmd_crashdump,
             help="recover the flight recorder from a memory image (§4.2)")
    sp.add_argument("dump")
    sp.add_argument("--last", type=int, default=20)

    sp = add("doctor", cmd_doctor,
             help="damage report: file issues, anomalies, salvage")
    sp.add_argument("trace")

    sp = add("inject", cmd_inject, "",
             help="deterministically corrupt a trace (fault injection)")
    sp.add_argument("input")
    sp.add_argument("output")
    from repro.core.faults import ALL_KINDS

    sp.add_argument("--kind", required=True, choices=ALL_KINDS,
                    help="which fault from the matrix to inject")
    sp.add_argument("--seed", type=int, default=0,
                    help="RNG seed; same seed = same damage")

    sp = add("export-ltt", cmd_export_ltt,
             help="convert to the LTT-style format (§5)")
    sp.add_argument("trace")
    sp.add_argument("--cpu", type=int, default=0)
    sp.add_argument("-o", "--output", required=True)

    sp = add("check", cmd_check, "",
             help="model-check the lockless reserve/commit protocol "
                  "(schedule exploration)")
    # Geometry/config flags default to None so the CLI can tell an
    # explicit value from "use the mutant's recommended config".
    sp.add_argument("--writers", type=int, default=None, metavar="N",
                    help="concurrent writer tasks (default 2)")
    sp.add_argument("--events", type=int, default=None, metavar="N",
                    help="events each writer logs (default 2)")
    sp.add_argument("--data-words", type=int, default=None, metavar="N",
                    dest="data_words",
                    help="payload words per event (default 1)")
    sp.add_argument("--buffer-words", type=int, default=None, metavar="N",
                    dest="buffer_words",
                    help="words per trace buffer (default 8)")
    sp.add_argument("--num-buffers", type=int, default=None, metavar="N",
                    dest="num_buffers",
                    help="buffers in the ring (default 8; runs must be "
                         "wrap-free)")
    sp.add_argument("--kills", type=int, default=None, metavar="N",
                    help="writer kills the scheduler may inject "
                         "(default 0)")
    sp.add_argument("--reader", action="store_const", const=True,
                    default=None,
                    help="run a concurrent reader task that checks "
                         "committed-covered buffers mid-run")
    sp.add_argument("--reader-steps", type=int, default=None, metavar="N",
                    dest="reader_steps",
                    help="observations the reader takes (default 3)")
    sp.add_argument("--mode", choices=("exhaustive", "random"),
                    default="exhaustive",
                    help="bounded exhaustive DFS, or randomized "
                         "PCT-style priority schedules")
    sp.add_argument("--preemption-bound", type=int, default=None,
                    metavar="N", dest="preemption_bound",
                    help="max preemptions per schedule in exhaustive "
                         "mode (default 2)")
    sp.add_argument("--schedules", type=int, default=500, metavar="N",
                    help="iterations in random mode (default 500)")
    sp.add_argument("--seed", type=int, default=0,
                    help="base seed for random mode; failures report "
                         "seed + iteration for exact re-runs")
    sp.add_argument("--depth", type=int, default=3,
                    help="PCT priority-change points per random "
                         "schedule (default 3)")
    sp.add_argument("--max-schedules", type=int, default=None, metavar="N",
                    dest="max_schedules",
                    help="stop exhaustive search after N schedules "
                         "(reported as truncated, not as a proof)")
    sp.add_argument("--shm", action="store_const", const=True,
                    default=None,
                    help="check across the shared-memory seam: writers "
                         "become independent attaches of one real shm "
                         "segment and a collector's drained output is "
                         "what the final invariants judge")
    sp.add_argument("--shm-cpus", type=int, default=None, metavar="N",
                    dest="shm_cpus",
                    help="per-CPU rings in the shm segment; writer w "
                         "binds CPU w %% N (default 1)")
    sp.add_argument("--collector-steps", type=int, default=None,
                    metavar="N", dest="collector_steps",
                    help="mid-schedule collector polls, each a "
                         "scheduling point (default 0; shm mode only)")
    sp.add_argument("--mutant", default=None, metavar="NAME",
                    help="check a deliberately broken logger or shm "
                         "attach/drain path instead (see --list-mutants); "
                         "its recommended config fills in unspecified "
                         "flags")
    sp.add_argument("--list-mutants", action="store_true",
                    dest="list_mutants",
                    help="list known mutants and exit")
    sp.add_argument("--save", metavar="PATH",
                    help="write the minimized counterexample as a "
                         "replayable JSON schedule script")
    sp.add_argument("--replay", metavar="PATH",
                    help="replay a saved schedule script and report "
                         "whether it still violates")

    sp = add("shm-demo", cmd_shm_demo, "",
             help="run the real cross-process scenario: N writer processes "
                  "log into one shared-memory segment while a collector "
                  "process drains it to a trace file")
    sp.add_argument("-o", "--output", required=True,
                    help="trace file the collector writes")
    sp.add_argument("--writers", type=int, default=2, metavar="N",
                    help="writer processes, one CPU each (default 2)")
    sp.add_argument("--events", type=int, default=2000, metavar="N",
                    help="events each writer logs (default 2000)")
    sp.add_argument("--data-words", type=int, default=2, metavar="N",
                    dest="data_words",
                    help="payload words per event (default 2)")
    sp.add_argument("--buffer-words", type=int, default=256, metavar="N",
                    dest="buffer_words",
                    help="words per trace buffer (default 256)")
    sp.add_argument("--num-buffers", type=int, default=8, metavar="N",
                    dest="num_buffers",
                    help="buffers per CPU ring (default 8)")
    _declare(sp, [_START_METHOD])
    sp.add_argument("--post-drain", action="store_true", dest="post_drain",
                    help="start the collector only after writers "
                         "quiesce instead of racing them")

    return p


@functools.lru_cache(maxsize=None)
def _parser() -> argparse.ArgumentParser:
    """The parser :func:`main` uses, built once per process.

    Parsing reads the tree and writes only the fresh namespace each call
    returns (defaults included), so one tree serves every call.
    """
    return build_parser()


def main(argv: Optional[List[str]] = None) -> int:
    """Run one subcommand; exit status 2 for an unreadable input.

    The readers' refusals — ``ValueError``/``EOFError`` for a trace
    file they will not parse (a bad file header always, frame damage
    under ``--strict``), ``StoreFormatError`` for a directory that is
    no store — and ``OSError`` (missing path, permissions) end the run
    with one ``repro-trace: error: <file>: <verdict>`` line instead of
    a traceback.
    """
    from repro.store.format import StoreFormatError

    args = _parser().parse_args(argv)
    try:
        return args.fn(args)
    except (OSError, ValueError, EOFError, StoreFormatError) as exc:
        verdict = str(exc)
        if isinstance(exc, OSError) and exc.filename is not None:
            verdict = f"{exc.filename}: {exc.strerror}"
        print(f"repro-trace: error: {verdict}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
