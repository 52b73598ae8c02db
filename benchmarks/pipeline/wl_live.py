"""Cross-process live path: ``shm_live``.

``W`` forked writers log three-word events into one shared region at
full speed (a closed loop: each logs its next event when the previous
call returns) while this process drives ``ShmFollower.poll()`` →
``LiveMonitor.feed()`` until the ring is drained.  A *cycle* is a fixed
number of events through a fresh region; an *op* is one event, timed
from the writer's stamp in its payload to the moment the monitor has
absorbed it.
"""

import itertools
import multiprocessing
import os
import time

import numpy as np

import gen
import harness
from repro.core.majors import Major
from repro.live.monitor import LiveMonitor
from repro.live.source import ShmFollower
from repro.shm import ShmTraceRegion

MAJOR = int(Major.TEST)
EVENTS_PER_CYCLE = 150_000
BUFFER_WORDS = 1024
NUM_BUFFERS = 64
SEQ_BITS = 40
#: Between empty polls.  A buffer takes ~2 ms to fill, so this neither
#: starves the writers of a core nor lets the ring (64 buffers) lap.
IDLE_SLEEP_S = 0.0002
#: Lag percentile reported as the tail; each cycle has >100k samples.
TAIL_PERCENTILE = 90


def writer_main(name, cpu, events, salt, skip, core, ready, go, done):
    """One writer process; ``skip`` is the planted fault (an event index
    it leaves out, or -1), ``core`` the CPU it is bound to (or None)."""
    if core is not None:
        os.sched_setaffinity(0, {core})
    region = ShmTraceRegion.attach(name)
    try:
        log = region.logger(cpu).log_words
        mono = time.monotonic_ns
        base = (cpu + 1) << SEQ_BITS
        minor = cpu + 1
        ks = (range(events) if skip < 0 else
              itertools.chain(range(skip), range(skip + 1, events)))
        ready.release()
        go.wait()
        t0 = mono()
        for k in ks:
            log(MAJOR, minor, (base | k, mono(), salt ^ k))
        done.put((cpu, mono() - t0))
    finally:
        region.close()


def placement(writers):
    """One core per writer and the last one for the consumer, as the
    paper binds a CPU's buffers to that CPU; left to the scheduler, the
    consumer's wake-ups bounce the writers and cost them a third of
    their rate.  ``None`` when there are not enough cores to go round."""
    cores = sorted(os.sched_getaffinity(0))
    if len(cores) <= writers:
        return None
    return cores[:writers], cores[-1]


def run_cycle(writers, events, salt, cores=None, tracer=None, skip=-1):
    """Fork the writers, drain them live, check what arrived.
    ``cores`` is :func:`placement`'s answer, taken before the consumer
    bound itself."""
    ctx = multiprocessing.get_context("fork")
    region = ShmTraceRegion.create(ncpus=writers, buffer_words=BUFFER_WORDS,
                                   num_buffers=NUM_BUFFERS)
    procs = []
    try:
        # A semaphore and an event, not ctx.Barrier: the barrier's state
        # lives in multiprocessing's heap arena, whose descriptors stay
        # open for the life of the process and read as a leak.
        ready, go = ctx.Semaphore(0), ctx.Event()
        done = ctx.SimpleQueue()
        for cpu in range(writers):
            p = ctx.Process(target=writer_main, name=f"live-writer-{cpu}",
                            args=(region.name, cpu, events, salt,
                                  skip if cpu == 0 else -1,
                                  cores[0][cpu] if cores else None,
                                  ready, go, done))
            p.start()
            procs.append(p)
        follower = ShmFollower(region)
        monitor = LiveMonitor()
        index = [region.index_word(cpu) for cpu in range(writers)]
        stats = follower.collector.stats
        absorbed = []      # (monotonic_ns, [(cpu, seq), ...]) per feed
        backlog = []
        poll_ns = feed_ns = polls = 0
        wait_from = None
        now = harness.now_ns

        for _ in procs:
            if not ready.acquire(timeout=30):
                raise RuntimeError("a writer never became ready")
        go.set()
        t_start = now()
        while True:
            t0 = now()
            records = follower.poll()
            t1 = now()
            polls += 1
            poll_ns += t1 - t0
            if tracer is not None:
                backlog.append(sum(
                    index[c].peek() // BUFFER_WORDS - stats.next_seq.get(c, 0)
                    for c in range(writers)))
            if records:
                monitor.feed(records)
                t2 = now()
                feed_ns += t2 - t1
                absorbed.append((time.monotonic_ns(),
                                 [(r.cpu, r.seq) for r in records]))
                if tracer is not None:
                    if wait_from is not None:
                        tracer.add("live.wait", wait_from, t0)
                        wait_from = None
                    tracer.add("shm.collector.poll", t0, t1)
                    tracer.add("live.monitor.feed", t1, t2)
                continue
            if wait_from is None:
                wait_from = t0
            if not any(p.is_alive() for p in procs):
                break
            time.sleep(IDLE_SLEEP_S)
        t0 = now()
        records = follower.finish()
        t1 = now()
        monitor.feed(records)
        t_end = now()
        absorbed.append((time.monotonic_ns(),
                         [(r.cpu, r.seq) for r in records]))
        if tracer is not None:
            tracer.add("live.wait", wait_from, t0)
            tracer.add("shm.collector.poll", t0, t1)
            tracer.add("live.monitor.feed", t1, t_end)
        poll_ns += t1 - t0
        feed_ns += t_end - t1
        for p in procs:
            p.join(30)
        writer_ns = {}
        while not done.empty():
            cpu, ns = done.get()
            writer_ns[cpu] = ns
        if len(writer_ns) != writers:
            raise RuntimeError(
                f"writers exited without reporting: "
                f"{[(p.name, p.exitcode) for p in procs]}")
    finally:
        for p in procs:
            if p.is_alive():
                p.terminate()
                p.join(5)
        region.close()
        region.unlink()

    seen, in_order, lag_ms = _check(monitor, writers, events, absorbed)
    logged = writers * events - (skip >= 0)
    wall_ns = t_end - t_start
    return {
        "wall_ns": wall_ns, "t_start": t_start, "t_end": t_end,
        "events": seen, "expected": writers * events,
        "dropped": writers * events - seen, "in_order": in_order,
        "rate": seen / (wall_ns / 1e9),
        "lag_p50": harness.median(lag_ms),
        "lag_tail": harness.pct(lag_ms, TAIL_PERCENTILE),
        "poll_s": poll_ns / 1e9, "feed_s": feed_ns / 1e9, "polls": polls,
        "feed_ns_per_event": feed_ns / max(1, monitor.total_events),
        "busy_share": (poll_ns + feed_ns) / wall_ns,
        "backlog": backlog,
        "writer_ns_per_event": harness.median(list(writer_ns.values()))
        / (logged / writers),
        "frames": stats.frames, "held": stats.held,
        "collector_dropped": stats.dropped,
        "unstable_copies": stats.unstable_copies,
    }


def _check(monitor, writers, events, absorbed):
    """Sequence numbers per CPU must be 0..events-1 in order; returns
    ``(events seen, all in order, per-event lag in ms)``."""
    trace = monitor.trace()
    top = max((seq for _ns, keys in absorbed for _c, seq in keys), default=0)
    when = np.zeros((writers, top + 1), dtype=np.int64)
    for ns, keys in absorbed:
        for cpu, seq in keys:
            when[cpu, seq] = ns
    seen = 0
    in_order = True
    lags = []
    for cpu in range(writers):
        b = trace.cpu_batch(cpu) if cpu in trace.batches_by_cpu else None
        if b is None:
            continue
        rows = np.flatnonzero(b.major == MAJOR)
        k = (b.data_column(0, rows) & np.uint64((1 << SEQ_BITS) - 1)
             ).astype(np.int64)
        seen += len(np.unique(k))
        in_order &= bool(np.all(np.diff(k) == 1)) and (
            len(k) == 0 or (k[0] == 0 and k[-1] == events - 1))
        stamp = b.data_column(1, rows).astype(np.int64)
        lags.append((when[cpu, b.seq[rows]] - stamp) / 1e6)
    return seen, in_order, (np.concatenate(lags) if lags else np.zeros(1))


def run(ctx, name):
    writers = harness.live_writers()
    events = max(512, int(EVENTS_PER_CYCLE * ctx.scale)) // writers
    skip = events // 2 if ctx.fault == "skip-seq" else -1

    def setup():
        # The region itself is per cycle; what can be prepared ahead is
        # only the salt and a region-sized allocation to fault pages in.
        with ShmTraceRegion.create(ncpus=writers, buffer_words=BUFFER_WORDS,
                                   num_buffers=NUM_BUFFERS):
            return gen.live_salt(ctx.seed)

    salt, setup_s = harness.timed_setup(setup, ctx.setup_reps)
    cores = placement(writers)

    def cycle(i):
        spanned = ctx.tracer is not None and i % 2 == 1
        if not spanned:
            return spanned, run_cycle(writers, events, salt, cores, None, skip)
        with ctx.tracer.span("cycle") as op:
            c = run_cycle(writers, events, salt, cores, ctx.tracer, skip)
        # The op is the drain itself: fork, join and the check are the
        # harness's, not the pipeline's.
        op.row[1], op.row[2] = c["t_start"], c["t_end"]
        return spanned, c

    everywhere = os.sched_getaffinity(0)
    if cores:
        os.sched_setaffinity(0, {cores[1]})
    try:
        cycles = harness.run_units(cycle, ctx.seconds)
    finally:
        os.sched_setaffinity(0, everywhere)
    all_c = [c for _s, c in cycles]
    attempted = sum(c["expected"] for c in all_c)
    dropped = sum(c["dropped"] for c in all_c)
    disorder = sum(not c["in_order"] for c in all_c)
    detail = {
        "writers": writers, "degraded": harness.nproc() < 2,
        "pinned": cores is not None,
        "events_per_cycle": writers * events, "cycles": len(all_c),
        "salt": salt, "dropped_events": dropped,
        "cycles_out_of_order": disorder,
        "problems": [msg for n, msg in (
            (dropped, f"{dropped} event(s) logged but never seen"),
            (disorder, f"{disorder} cycle(s) with a gap or out of order"),
        ) if n],
        "tail_percentile": TAIL_PERCENTILE,
        "cycle_rate": harness.timing_summary([c["rate"] for c in all_c]),
    }
    result = {"attempted": attempted, "failed": dropped + disorder,
              "detail": detail, "setup_s": setup_s}

    def med(key, cs=all_c):
        return harness.median([c[key] for c in cs])

    if ctx.tracer is None:
        result["metrics"] = {
            "events_per_s": med("rate"),
            "op_p50_ms": med("lag_p50"),
            "op_tail_ms": med("lag_tail"),
        }
        return result
    traced = [c for s, c in cycles if s] or all_c
    plain = [c for s, c in cycles if not s]

    def tmed(key):
        return med(key, traced)

    backlog = np.concatenate([c["backlog"] for c in traced])
    metrics = {
        "shm.collector.poll_busy_s": tmed("poll_s"),
        "shm.collector.polls": tmed("polls"),
        "shm.collector.frames": tmed("frames"),
        "shm.collector.held": tmed("held"),
        "shm.collector.dropped": tmed("collector_dropped"),
        "shm.collector.unstable_copies": tmed("unstable_copies"),
        "live.monitor.feed_busy_s": tmed("feed_s"),
        "live.monitor.feed_ns_per_event": tmed("feed_ns_per_event"),
        "live.consumer_busy_share": tmed("busy_share"),
        "live.backlog_buffers_p50": harness.median(backlog),
        "live.backlog_buffers_max": float(backlog.max()),
        "live.lag_ms_p50": tmed("lag_p50"),
        "live.lag_ms_p90": tmed("lag_tail"),
        "live.drop_ratio": dropped / attempted,
        "shm.writer_ns_per_event": tmed("writer_ns_per_event"),
    }
    if plain:
        metrics["trace_overhead_ratio"] = (
            tmed("wall_ns") / med("wall_ns", plain))
    result["metrics"] = metrics
    return result
