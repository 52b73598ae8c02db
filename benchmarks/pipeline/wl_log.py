"""Producer hot path: ``log_hot``, ``log_shm`` and ``log_masked``.

One process, one logger, a seeded 1000-call pattern replayed in a tight
loop.  The three workloads share everything but the logger they drive:
process-private flight buffers, an attached shared-memory region, and
private buffers with the mask off.  An *op* is one chunk of calls; no
reader layer does any work until the final tail check.
"""

import collections
import contextlib
import time

import numpy as np

import gen
import harness
from repro.core.columnar import ColumnarTraceReader
from repro.core.facility import TraceFacility
from repro.core.majors import Major
from repro.shm import ShmTraceRegion
from repro.shm.collector import ShmCollector

MAJOR = int(Major.TEST)
CHUNKS_PER_BATCH = 50
#: Events of the ring's tail compared against the generator.
TAIL_EVENTS = 2000
#: Of a batch's 50 chunks.  A 12 s run times thousands of chunks, which
#: would support p99; but on a shared host p99 of a 3 ms chunk is the
#: neighbours' noise (+-15 % between identical runs), p90 repeats to +-3 %.
TAIL_PERCENTILE = 90
#: Homogeneous chunks of the traced run: span suffix -> (method, words).
KINDS = (("log0", "log0", 0), ("log1", "log1", 1), ("log3", "log3", 3),
         ("log_words8", "log_words", 8))

#: pattern repeats per chunk: a masked call is ~30x cheaper than a
#: logged one, so its chunk is longer to keep the timer out of the result.
VARIANTS = {
    "log_hot": dict(shm=False, masked=False, repeat=1),
    "log_shm": dict(shm=True, masked=False, repeat=1),
    "log_masked": dict(shm=False, masked=True, repeat=10),
}


class _Private:
    stage = "core.logger"

    def __init__(self, masked=False):
        self.fac = TraceFacility(mode="flight")
        if not masked:
            self.fac.enable_all()
        self.logger = self.fac.logger(0)

    def records(self):
        return self.fac.snapshot()

    def counters(self):
        st = self.fac.stats()
        return st["events_logged"], st["buffers_completed"]

    def close(self):
        pass


class _Shm:
    stage = "shm.region"

    def __init__(self):
        self.region = ShmTraceRegion.create(ncpus=1, buffer_words=1024,
                                            num_buffers=64)
        self.attached = ShmTraceRegion.attach(self.region.name)
        self.logger = self.attached.logger(0)

    def records(self):
        return ShmCollector(self.region).finalize()

    def counters(self):
        return None

    def close(self):
        self.attached.close()
        self.region.close()
        self.region.unlink()


def bind(logger, pattern, repeat=1):
    """``(bound method, args)`` per call, so the loop does no lookups."""
    calls = []
    for method, minor, words in pattern:
        args = ((MAJOR, minor, words) if method == "log_words"
                else (MAJOR, minor) + words)
        calls.append((getattr(logger, method), args))
    return calls * repeat


def homogeneous(logger, pattern, method, nwords, minor):
    words = next(w for m, _minor, w in pattern
                 if m == method and len(w) == nwords)
    return bind(logger, [(method, minor, words)] * len(pattern))


def run_chunk(calls):
    """Issue every call; returns ``(ns, how many returned True)``."""
    ok = 0
    t0 = harness.now_ns()
    for fn, args in calls:
        ok += fn(*args)
    return harness.now_ns() - t0, ok


def _cas_chunk(word, n):
    def chunk(_calls):
        ok = 0
        t0 = harness.now_ns()
        for _ in range(n):
            old = word.load()
            ok += word.compare_and_store(old, old + 1)
        return harness.now_ns() - t0, ok
    return chunk


def _tail_matches(backend, issued):
    """The decoded end of the ring against the last calls issued."""
    expected = [(args[1], args[2] if fn.__name__ == "log_words" else args[2:])
                for calls in issued for fn, args in calls][-TAIL_EVENTS:]
    trace = ColumnarTraceReader().decode_records(backend.records())
    batch = trace.cpu_batch(0)
    rows = np.flatnonzero(batch.major == MAJOR)[-len(expected):]
    got = [(e.minor, tuple(e.data)) for e in batch.events(rows)]
    return bool(expected) and got == expected


Step = collections.namedtuple("Step", "span calls chunk in_ring want")


def _plan(ctx, var, backend, pattern, mix, stack):
    """The chunks one batch cycles through, in issue order.

    Untraced there is one step, the seeded mix.  The traced run adds
    homogeneous chunks per payload size (so cost can be fitted against
    words) and, for shm, a private-logger reference and a bare CAS loop.
    """
    n = len(pattern)
    if var["masked"]:
        return [Step("core.mask.masked", mix, run_chunk, False, 0)]
    plan = [Step(backend.stage + ".mix", mix, run_chunk, True, len(mix))]
    if ctx.tracer is None:
        return plan
    for i, (suffix, method, nwords) in enumerate(KINDS):
        calls = homogeneous(backend.logger, pattern, method, nwords, n + i)
        plan.append(Step(f"{backend.stage}.{suffix}", calls, run_chunk,
                         True, n))
    if var["shm"]:
        ref = _Private()
        probe = stack.enter_context(ShmTraceRegion.create(
            ncpus=1, buffer_words=64, num_buffers=4))
        plan.append(Step("core.logger.log1",
                         homogeneous(ref.logger, pattern, "log1", 1, 0),
                         run_chunk, False, n))
        plan.append(Step("shm.atomics.cas", None,
                         _cas_chunk(probe.index_word(0), n), False, n))
    return plan


def run(ctx, name):
    var = VARIANTS[name]
    pattern = gen.call_pattern(ctx.seed)
    chunk_calls = len(pattern) * var["repeat"]
    backend = None

    def setup():
        nonlocal backend
        if backend is not None:
            backend.close()
        backend = _Shm() if var["shm"] else _Private(var["masked"])
        return bind(backend.logger, gen.call_pattern(ctx.seed), var["repeat"])

    with contextlib.ExitStack() as stack:
        stack.callback(lambda: backend is not None and backend.close())
        mix, setup_s = harness.timed_setup(setup, ctx.setup_reps)
        plan = _plan(ctx, var, backend, pattern, mix, stack)
        issued = collections.deque(maxlen=TAIL_EVENTS // len(pattern) + 2)
        bad_chunks = 0
        chunks_run = 0

        def batch(i):
            """50 chunks round-robin over the plan; every other batch of
            a traced run goes unspanned, as the overhead reference."""
            nonlocal bad_chunks, chunks_run
            spanned = ctx.tracer is not None and i % 2 == 1
            chunk_ms = []
            t0 = time.perf_counter()
            for c in range(CHUNKS_PER_BATCH):
                step = plan[c % len(plan)]
                if spanned:
                    with ctx.tracer.span(step.span):
                        ns, ok = step.chunk(step.calls)
                else:
                    ns, ok = step.chunk(step.calls)
                if step.in_ring:
                    issued.append(step.calls)
                bad_chunks += ok != step.want
                chunk_ms.append(ns / 1e6)
            chunks_run += CHUNKS_PER_BATCH
            wall = time.perf_counter() - t0
            rate = CHUNKS_PER_BATCH * chunk_calls / (sum(chunk_ms) / 1e3)
            return spanned, wall, rate, chunk_ms

        before = backend.counters()
        batches = harness.run_units(batch, ctx.seconds)
        after = backend.counters()

        if var["masked"]:
            tail_ok = after[0] == before[0]  # nothing reached the ring
        else:
            tail_ok = _tail_matches(backend, issued)
        units_ms = [b[3] for b in batches]
        detail = {
            "chunk_calls": chunk_calls,
            "chunks": chunks_run,
            "pattern_sha256": gen.sha256_json(pattern),
            "tail_check": tail_ok,
            "problems": [msg for bad, msg in (
                (bad_chunks, f"{bad_chunks} chunk(s) with a call that "
                             f"returned the wrong value"),
                (not tail_ok, "the ring's tail differs from the calls issued"),
            ) if bad],
            "chunk_ms": harness.timing_summary(
                [ms for unit in units_ms for ms in unit]),
        }
        if ctx.tracer is None:
            p50, tail = harness.op_latency(units_ms, TAIL_PERCENTILE)
            metrics = {
                "events_per_s": harness.median([b[2] for b in batches]),
                "op_p50_ms": p50, "op_tail_ms": tail,
            }
            detail["tail_percentile"] = TAIL_PERCENTILE
        else:
            metrics = _layer_metrics(ctx.tracer.spans, name, backend,
                                     len(pattern), chunk_calls,
                                     before, after, batches)
        return {"attempted": chunks_run + 1,
                "failed": bad_chunks + (not tail_ok),
                "metrics": metrics, "detail": detail, "setup_s": setup_s}


def _layer_metrics(spans, name, backend, pattern_calls, chunk_calls,
                   before, after, batches):
    def per_call(span, calls=pattern_calls):
        return harness.median(harness.span_ns(spans, span)) / calls

    traced = [b[1] for b in batches if b[0]]
    plain = [b[1] for b in batches if not b[0]]
    out = {}
    if traced and plain:
        out["trace_overhead_ratio"] = (harness.median(traced)
                                       / harness.median(plain))
    if name == "log_masked":
        out["core.mask.masked_ns"] = per_call("core.mask.masked", chunk_calls)
        return out
    ns = {suffix: per_call(f"{backend.stage}.{suffix}")
          for suffix, _m, _w in KINDS}
    if name == "log_hot":
        for suffix, value in ns.items():
            out[f"core.logger.{suffix}_ns"] = value
        slope, intercept = np.polyfit([w for _s, _m, w in KINDS],
                                      [ns[s] for s, _m, _w in KINDS], 1)
        out["core.logger.fixed_ns"] = float(intercept)
        out["core.logger.per_word_ns"] = float(slope)
        events = after[0] - before[0]
        out["core.buffers.switches"] = (after[1] - before[1]) / events * 1e6
    else:
        out["shm.region.log1_ns"] = ns["log1"]
        out["shm.region.overhead_ratio"] = ns["log1"] / per_call(
            "core.logger.log1")
        out["shm.atomics.cas_ns"] = per_call("shm.atomics.cas")
    return out
