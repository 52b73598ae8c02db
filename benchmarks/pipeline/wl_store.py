"""Writes beside reads on one layer: ``store``.

A *cycle* packs the decoded contended trace into a fresh store
directory and then runs a seeded mix of 40 queries against it through
``repro.cli.main``: selective ``query --cpu --start --end``, full-scan
``query --aggregate name`` and ``locks <store>``.  Cycles come in pairs,
one with the default shard cache (which the store fits) and one with
``REPRO_SHARD_CACHE_MB=2`` (which it does not).  An *op* is one query.
The raw trace is decoded once, in setup; nothing in a cycle decodes.
"""

import os
import shutil

import numpy as np

import gen
import harness
from repro.core.columnar import ColumnarTraceReader, as_batch
from repro.core.registry import default_registry
from repro.core.writer import save_records
from repro.ksim.kernel import SymbolTable
from repro.store import Predicate, TraceStore, pack_trace, select, shard_cache
from repro.store.query import aggregate
from repro.tools.listing import format_event
from repro.tools.lockstats import format_lockstats, lock_statistics

SHARD_EVENTS = 2048
SPILL_CACHE_MB = "2"
CACHE_ENV = "REPRO_SHARD_CACHE_MB"
#: 15 % of a pair's 80 ops are scans or tools under a spilling cache;
#: p90 sits among them.
TAIL_PERCENTILE = 90
SCAN = Predicate(include_control=False)
#: No --symbols file: ids render as numbers, as in a bare CLI call.
SYM = SymbolTable()


def predicate(tail):
    """The Predicate ``repro-trace query`` builds from a select op's argv."""
    opts = dict(zip(tail[::2], tail[1::2]))
    return Predicate(cpus=(int(opts["--cpu"]),), min_data=0,
                     start_s=float(opts["--start"]),
                     end_s=float(opts["--end"]), include_control=False)


def render_rows(batch, rows):
    return "".join(format_event(e) + "\n" for e in batch.events(rows))


def render_counts(counts):
    return "".join(f"{count:>8} {key}\n" for count, key in counts[:10])


def render_locks(trace):
    """``repro-trace locks`` with default flags, from its library calls."""
    stats = lock_statistics(trace, sort_by="time", columnar=True)
    return format_lockstats(stats, SYM.lock_names, SYM.chains, top=10,
                            sort_label="time") + "\n"


def build(ctx, work):
    """Decode the contended trace once and answer every op of the mix
    by brute force over the raw batch: the reference each query must
    reproduce."""
    records = gen.contended_records(ctx.seed, ctx.scale)
    raw_path = os.path.join(work, "contended.k42")
    save_records(raw_path, records)
    trace = ColumnarTraceReader(
        registry=default_registry()).decode_records(records)
    batch = as_batch(trace)
    cpu_times = {}
    for cpu in trace.cpus:
        b = trace.cpu_batch(cpu)
        cpu_times[cpu] = np.sort(b.time[b.timed & ~b.control_mask()]) / 1e9
    ops = gen.store_ops(ctx.seed, cpu_times, ctx.scale)
    expected = {}
    matched = {}    # rows each distinct query should return
    for kind, tail in ops:
        key = (kind, tuple(tail))
        if key in expected or kind == "locks":
            continue
        if kind == "select":
            rows = np.flatnonzero(select(batch, predicate(tail)))
            expected[key] = gen.sha256_text(render_rows(batch, rows))
        else:
            rows = np.flatnonzero(select(batch, SCAN))
            expected[key] = gen.sha256_text(render_counts(
                aggregate(batch, by="name", sel=rows)))
        matched[key] = len(rows)
    useful = sum(matched.get((kind, tuple(tail)), 0) for kind, tail in ops)
    rc, out, err = harness.cli_call(["locks", raw_path])
    if rc != 0:
        raise RuntimeError(f"locks on the raw trace failed: {err[-300:]}")
    expected[("locks", ())] = gen.sha256_text(out)
    return {"trace": trace, "events": len(batch), "ops": ops,
            "expected": expected, "rows_matched": useful,
            "trace_sha256": gen.sha256_file(raw_path),
            "mix_sha256": gen.sha256_json(ops)}


def cli_op(store_dir, kind, tail):
    """One op through the CLI; ``(rc, stdout, stderr)``."""
    argv = (["locks", store_dir] if kind == "locks"
            else ["query", store_dir, *tail])
    return harness.cli_call(argv)


def library_op(tr, store_dir, kind, tail):
    """The same op from library calls, a span per stage; returns the
    text and the QueryResult (None for ``locks``)."""
    with tr.span("op:" + kind):
        with tr.span("store.reader.open"):
            store = TraceStore(store_dir, registry=default_registry())
        if kind == "locks":
            with tr.span("store.reader.trace"):
                trace = store.trace()
            with tr.span("tools.lockstats"):
                return render_locks(trace), None
        pred = predicate(tail) if kind == "select" else SCAN
        with tr.span("store.reader.query." + kind):
            qr = store.query(pred)
        with tr.span("store.query.render"):
            if kind == "select":
                text = render_rows(qr.batch, qr.batch.order_by_time())
            else:
                text = render_counts(aggregate(
                    qr.batch, by="name", pid=qr.pid, pid_known=qr.pid_known))
        return text, qr


def run(ctx, name):
    saved_env = os.environ.get(CACHE_ENV)
    try:
        with harness.work_dir(name) as work:
            return _run(ctx, work)
    finally:
        if saved_env is None:
            os.environ.pop(CACHE_ENV, None)
        else:
            os.environ[CACHE_ENV] = saved_env


def _run(ctx, work):
    truth, setup_s = harness.timed_setup(lambda: build(ctx, work),
                                         ctx.setup_reps)
    events = truth["events"]
    # A smoke trace is a tenth the size; keep it cut into several shards.
    shard_events = SHARD_EVENTS if ctx.scale >= 1 else SHARD_EVENTS // 4
    problems = []
    failed = 0
    ops_ms = []
    packs = []       # per timed cycle: spill, pack_ns, bytes, hit ratio...

    def fail(msg):
        nonlocal failed
        failed += 1
        if len(problems) < 8:
            problems.append(msg)

    def cycle(spill, spanned):
        """Pack, then the whole mix; the store is removed afterwards."""
        if spill:
            os.environ[CACHE_ENV] = SPILL_CACHE_MB
        else:
            os.environ.pop(CACHE_ENV, None)
        store_dir = os.path.join(work, f"cycle-{len(packs)}-{int(spill)}.store")
        tr = ctx.tracer if spanned else None
        t0 = harness.now_ns()
        if tr is not None:
            with tr.span("op:pack"):
                with tr.span("store.writer.pack_trace"):
                    res = pack_trace(truth["trace"], store_dir,
                                     shard_events=shard_events)
        else:
            res = pack_trace(truth["trace"], store_dir,
                             shard_events=shard_events)
        pack_ns = harness.now_ns() - t0
        if res.events != events:
            fail(f"pack wrote {res.events} events, setup decoded {events}")
        cache = shard_cache()
        hits0, misses0 = cache.hits, cache.misses
        info = {"spill": spill, "spanned": spanned, "pack_ns": pack_ns,
                "bytes": res.bytes_written, "shards": res.shards,
                "shards_read": 0, "shards_total": 0, "rows_scanned": 0,
                "cold_ms": None, "warm_ms": None}
        if tr is not None:
            # Cold and warm full scans of the fresh store, before the mix
            # touches it: every shard is a miss, then (if it fits) a hit.
            for key in ("cold_ms", "warm_ms"):
                with tr.span("probe:" + key) as op:
                    with tr.span("store.reader.query.scan"):
                        TraceStore(store_dir).query(SCAN)
                info[key] = op.ns / 1e6
        if ctx.fault == "truncate-shard":
            victim = os.path.join(store_dir, "shard-00000.npz")
            os.truncate(victim, os.path.getsize(victim) // 2)
        for kind, tail in truth["ops"]:
            t0 = harness.now_ns()
            if tr is not None:
                try:
                    text, qr = library_op(tr, store_dir, kind, tail)
                    rc, err = 0, ""
                except Exception as exc:  # a damaged store fails the op, not the run
                    rc, text, err, qr = -1, "", repr(exc), None
                if qr is not None:
                    info["shards_read"] += qr.shards_read
                    info["shards_total"] += qr.shards_total
                    info["rows_scanned"] += qr.rows_scanned
            else:
                rc, text, err = cli_op(store_dir, kind, tail)
            ns = harness.now_ns() - t0
            if rc != 0:
                fail(f"{kind} {' '.join(tail)}: rc {rc}: {err[-200:]}")
            elif gen.sha256_text(text) != truth["expected"][(kind, tuple(tail))]:
                fail(f"{kind} {' '.join(tail)}: rows differ from brute force")
            ops_ms.append((kind, spill, spanned, ns / 1e6))
        lookups = (cache.hits - hits0) + (cache.misses - misses0)
        info["hit_ratio"] = (cache.hits - hits0) / lookups if lookups else 0.0
        shutil.rmtree(store_dir)
        packs.append(info)

    def pair(i):
        spanned = ctx.tracer is not None and i % 2 == 1
        if i == 0:
            cycle(False, False)   # warm-up: one fit cycle, then forgotten
            del packs[:], ops_ms[:]
            return None
        first = len(ops_ms)
        cycle(False, spanned)
        cycle(True, spanned)
        return [m for _k, _sp, _s, m in ops_ms[first:]]

    pairs_ms = harness.run_units(pair, ctx.seconds)

    n_ops = len(truth["ops"])
    detail = {
        "events": events, "trace_sha256": truth["trace_sha256"],
        "mix_sha256": truth["mix_sha256"], "ops_per_cycle": n_ops,
        "cycles": len(packs), "problems": problems,
        "tail_percentile": TAIL_PERCENTILE,
        "bytes_per_event": packs[0]["bytes"] / events if packs else None,
        "shards": packs[0]["shards"] if packs else None,
    }
    result = {"attempted": (len(packs) + 1) * (n_ops + 1), "failed": failed,
              "detail": detail, "setup_s": setup_s}
    if ctx.tracer is None:
        p50, tail = harness.op_latency(pairs_ms, TAIL_PERCENTILE)
        detail["op_ms"] = {
            kind: harness.timing_summary(
                [m for k, _sp, _s, m in ops_ms if k == kind])
            for kind, _n in gen.STORE_MIX}
        result["metrics"] = {
            "events_per_s": harness.median(
                [events / (p["pack_ns"] / 1e9) for p in packs]),
            "op_p50_ms": p50, "op_tail_ms": tail,
        }
    else:
        for key in ("bytes", "shards_read", "shards_total", "rows_scanned"):
            values = {p[key] for p in packs if p["spanned"]}
            if len(values) != 1:
                fail(f"{key} differs between cycles of one run: {values}")
        result["failed"] = failed
        result["metrics"] = _layer_metrics(ctx, truth, packs, ops_ms)
    return result


def _layer_metrics(ctx, truth, packs, ops_ms):
    spans = ctx.tracer.spans
    events = truth["events"]
    traced = [p for p in packs if p["spanned"]]
    fit = [p for p in traced if not p["spill"]]
    spill = [p for p in traced if p["spill"]]

    def med_ms(span):
        return harness.median(harness.span_ns(spans, span)) / 1e6

    one = traced[0]
    out = {
        "store.writer.pack_ns_per_event":
            harness.median(harness.span_ns(spans, "store.writer.pack_trace"))
            / events,
        "store.writer.bytes_written": one["bytes"],
        "store.writer.bytes_per_event": one["bytes"] / events,
        "store.reader.open_ms": med_ms("store.reader.open"),
        "store.reader.query_cold_ms":
            harness.median([p["cold_ms"] for p in fit]),
        "store.reader.query_warm_ms":
            harness.median([p["warm_ms"] for p in fit]),
        "store.query.pushdown_ms": med_ms("store.reader.query.select"),
        "store.query.shards_read": one["shards_read"],
        "store.query.shards_pruned": one["shards_total"] - one["shards_read"],
        "store.query.rows_scanned_per_row":
            one["rows_scanned"] / max(1, truth["rows_matched"]),
        "store.cache.hit_ratio_fit":
            harness.median([p["hit_ratio"] for p in fit]),
        "store.cache.hit_ratio_spill":
            harness.median([p["hit_ratio"] for p in spill]),
        "tools.lockstats_store_ms": harness.median(
            [m for k, _sp, s, m in ops_ms if k == "locks" and s]),
    }
    plain = [m for _k, _sp, s, m in ops_ms if not s]
    if plain:
        out["trace_overhead_ratio"] = harness.median(
            [m for _k, _sp, s, m in ops_ms if s]) / harness.median(plain)
    return out
