"""Seeded input generators.  ``--seed`` reaches nothing but this module.

Every generator keeps the *amount* of work fixed and lets the seed
choose only its content and order, so two seeds give different inputs
of the same size and their timings are comparable.
"""

import hashlib
import json
import random

#: Calls per 1000 by payload size — small-heavy, as in the paper's mix.
CALL_MIX = (("log0", 0, 300), ("log1", 1, 350), ("log2", 2, 200),
            ("log3", 3, 100), ("log_words", 8, 50))
PATTERN_CALLS = sum(count for _m, _w, count in CALL_MIX)

#: Ops per store cycle by kind (70 % selective, 20 % scan, 10 % tool).
STORE_MIX = (("select", 28), ("aggregate", 8), ("locks", 4))
WINDOW_SHARE = 0.05

CONTENTION = dict(ncpus=8, workers_per_cpu=2, iterations=120,
                  pc_sample_period=500, buffer_words=1024, num_buffers=128)


def _rng(seed, tag):
    return random.Random(f"pipeline:{tag}:{seed}")


def sha256_text(text):
    return hashlib.sha256(text.encode()).hexdigest()


def sha256_json(obj):
    return sha256_text(json.dumps(obj, sort_keys=True))


def sha256_file(path):
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def call_pattern(seed):
    """1000 logging calls ``(method, minor, words)`` in seeded order.

    The minor is the position in the pattern, so a decoded event names
    the call that produced it; the words are seeded 48-bit values.
    """
    rng = _rng(seed, "calls")
    kinds = [(method, nwords) for method, nwords, count in CALL_MIX
             for _ in range(count)]
    rng.shuffle(kinds)
    return [(method, minor,
             tuple(rng.getrandbits(48) for _ in range(nwords)))
            for minor, (method, nwords) in enumerate(kinds)]


def live_salt(seed):
    """Third payload word of the live writers is ``salt ^ sequence``."""
    return _rng(seed, "live").getrandbits(48)


def contended_records(seed, scale=1.0):
    """The lock-storm trace, as buffer records.

    The seed perturbs the allocation size, which changes addresses and
    timestamps throughout the trace but not the number of events.
    """
    from repro.workloads import run_contention

    kw = dict(CONTENTION)
    if scale < 1:  # smoke: a twentieth of the work in an eighth of the ring
        kw["iterations"] = max(6, int(kw["iterations"] * scale))
        kw["num_buffers"] //= 8
    alloc_size = 96_000 + 8 * _rng(seed, "contention").randrange(512)
    _kernel, facility, _result = run_contention(
        alloc_size=alloc_size, seed=seed, **kw)
    return facility.snapshot()


def store_ops(seed, cpu_times, scale=1.0):
    """One cycle's query mix: ``(kind, argv-tail)`` in seeded order.

    ``cpu_times`` maps each CPU to the sorted times, in seconds, of its
    events.  A selective query asks one CPU for the window that holds a
    random 5 % run of *its* events, so every seed's queries return the
    same share of the trace and differ only in where they look.
    """
    rng = _rng(seed, "store")
    cpus = sorted(cpu_times)
    ops = []
    for kind, count in STORE_MIX:
        for _ in range(max(1, int(count * scale))):
            if kind == "select":
                cpu = rng.choice(cpus)
                times = cpu_times[cpu]
                width = max(1, int(len(times) * WINDOW_SHARE))
                first = rng.randrange(len(times) - width)
                ops.append((kind, ["--cpu", str(cpu),
                                   "--start", repr(float(times[first])),
                                   "--end", repr(float(times[first + width]))]))
            elif kind == "aggregate":
                ops.append((kind, ["--aggregate", "name", "--top", "10"]))
            else:
                ops.append((kind, []))
    rng.shuffle(ops)
    return ops
