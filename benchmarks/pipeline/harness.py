"""Shared plumbing of the pipeline benchmark.

Spans (the per-layer ledger), order statistics, the environment record,
the leak check run after every workload, and the in-process CLI caller.
Nothing here knows a workload; the ``wl_*`` modules do.
"""

import contextlib
import gc
import io
import json
import multiprocessing
import os
import platform
import resource
import shutil
import tempfile
import time
import traceback

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
REPO = os.path.dirname(os.path.dirname(HERE))
BENCHMARK_JSON = os.path.join(REPO, "BENCHMARK.json")
#: Scratch space for generated traces and stores.  Inside the checkout
#: because the driver allows writes nowhere else; gitignored.
WORK_ROOT = os.path.join(HERE, ".work")

now_ns = time.perf_counter_ns


def load_spec():
    with open(BENCHMARK_JSON) as fh:
        return json.load(fh)


# ----------------------------------------------------------------------
# Spans
# ----------------------------------------------------------------------
class Tracer:
    """In-memory span recorder: ``[name, start_ns, end_ns, parent, op_id]``.

    A span opened while another is open is its child; a top-level span
    is an *op* and every span below it carries its index as ``op_id``.
    Spans are only ever appended, and written out once at exit.
    """

    def __init__(self):
        self.spans = []
        self._stack = []

    def span(self, name):
        return _Span(self, name)

    def add(self, name, start_ns, end_ns):
        """Record an already-timed interval under the open span."""
        parent = self._stack[-1] if self._stack else -1
        idx = len(self.spans)
        op_id = self.spans[parent][4] if parent >= 0 else idx
        self.spans.append([name, start_ns, end_ns, parent, op_id])

    def dump(self, path, **meta):
        doc = dict(meta)
        doc["columns"] = ["name", "start_ns", "end_ns", "parent", "op_id"]
        doc["spans"] = self.spans
        with open(path, "w") as fh:
            json.dump(doc, fh)


class _Span:
    __slots__ = ("tr", "name", "row")

    def __init__(self, tr, name):
        self.tr = tr
        self.name = name

    def __enter__(self):
        tr = self.tr
        parent = tr._stack[-1] if tr._stack else -1
        idx = len(tr.spans)
        op_id = tr.spans[parent][4] if parent >= 0 else idx
        self.row = row = [self.name, 0, 0, parent, op_id]
        tr.spans.append(row)
        tr._stack.append(idx)
        row[1] = now_ns()
        return self

    def __exit__(self, *exc):
        self.row[2] = now_ns()
        self.tr._stack.pop()

    @property
    def ns(self):
        return self.row[2] - self.row[1]


def ledger(spans):
    """Per-stage self time, and how much of the traced wall it explains.

    Self time is a span's duration minus its children's.  An op that has
    children is the harness's own glue, so its self time is the
    *unattributed* remainder; an op without children is itself a stage.
    Returns ``(stages, wall_ns, attributed_share)`` with ``stages`` a
    dict ``name -> {"n", "self_ns"}``.
    """
    child_ns = [0] * len(spans)
    has_child = [False] * len(spans)
    for name, start, end, parent, _op in spans:
        if parent >= 0:
            child_ns[parent] += end - start
            has_child[parent] = True
    stages = {}
    wall = unattributed = 0
    for i, (name, start, end, parent, _op) in enumerate(spans):
        self_ns = (end - start) - child_ns[i]
        if parent < 0:
            wall += end - start
            if has_child[i]:
                unattributed += self_ns
                continue
        st = stages.setdefault(name, {"n": 0, "self_ns": 0})
        st["n"] += 1
        st["self_ns"] += self_ns
    share = 1.0 - unattributed / wall if wall else 0.0
    return stages, wall, share


def span_ns(spans, name):
    """Durations of every span called ``name``."""
    return [end - start for n, start, end, _p, _o in spans if n == name]


# ----------------------------------------------------------------------
# Statistics
# ----------------------------------------------------------------------
def median(values):
    return float(np.median(values))


def pct(values, p):
    return float(np.percentile(values, p))


def supported_tail(n):
    """The highest percentile of the ladder with >= 10 samples beyond it."""
    best = 50.0
    for p in (75.0, 90.0, 95.0, 99.0, 99.9):
        if n * (100.0 - p) / 100.0 >= 10:
            best = p
    return best


def op_latency(units_ms, tail_percentile):
    """``(p50, tail)`` of op latency over the timed units.

    Each unit's own percentile first, then the median over units: a
    neighbour's burst that covers less than half the run then moves the
    tail no more than it moves the median, where a percentile pooled
    over the whole run would soak up every slow stretch.
    """
    return (median([median(u) for u in units_ms]),
            median([pct(u, tail_percentile) for u in units_ms]))


def timing_summary(values_ms):
    """Median, the highest supported percentile, and the sample count."""
    n = len(values_ms)
    if n == 0:
        return {"n": 0}
    tail = supported_tail(n)
    return {"n": n, "p50": median(values_ms), "tail_percentile": tail,
            "tail": pct(values_ms, tail)}


# ----------------------------------------------------------------------
# Environment
# ----------------------------------------------------------------------
def nproc():
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux
        return os.cpu_count() or 1


def live_writers():
    """``W``: one core stays with the consumer, at most two writers."""
    return max(1, min(2, nproc() - 1))


def pool_start_method():
    """What ``repro.core.pool`` will pick, by its documented rule."""
    choice = os.environ.get("REPRO_POOL_START_METHOD", "").strip().lower()
    methods = multiprocessing.get_all_start_methods()
    if choice in ("none", "off", "0"):
        return "none"
    if choice in methods:
        return choice
    return "fork" if "fork" in methods else "spawn"


def environment():
    return {
        "nproc": nproc(),
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "platform": platform.platform(),
        "live_writers": live_writers(),
        "pool_start_method": pool_start_method(),
    }


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# ----------------------------------------------------------------------
# Scratch directories
# ----------------------------------------------------------------------
@contextlib.contextmanager
def work_dir(tag):
    """A private scratch directory under :data:`WORK_ROOT`, removed on exit."""
    os.makedirs(WORK_ROOT, exist_ok=True)
    path = tempfile.mkdtemp(prefix=f"{tag}-", dir=WORK_ROOT)
    try:
        yield path
    finally:
        shutil.rmtree(path, ignore_errors=True)


# ----------------------------------------------------------------------
# Leak check (the approach of tools/check_pool_hygiene.py, from inside)
# ----------------------------------------------------------------------
def _children():
    me = os.getpid()
    kids = []
    for pid in os.listdir("/proc"):
        if not pid.isdigit():
            continue
        try:
            with open(f"/proc/{pid}/stat") as fh:
                ppid = int(fh.read().rsplit(")", 1)[1].split()[1])
            if ppid != me:
                continue
            with open(f"/proc/{pid}/cmdline", "rb") as fh:
                cmd = fh.read().replace(b"\0", b" ").decode("utf-8", "replace")
        except (OSError, IndexError, ValueError):
            continue
        # One tracker per interpreter, not per pool: it exits with us.
        if "resource_tracker" not in cmd:
            kids.append((int(pid), cmd.strip()))
    return kids


def _listing(path):
    try:
        return set(os.listdir(path))
    except OSError:
        return set()


def _open_fds():
    """``{fd: what it points at}``; the descriptor listdir itself used is
    closed by the time it is resolved, and drops out."""
    fds = {}
    for fd in _listing("/proc/self/fd"):
        try:
            fds[fd] = os.readlink(f"/proc/self/fd/{fd}")
        except OSError:
            pass
    return fds


def stop_processes():
    """Stop every process this interpreter started and wait for each.

    Runs on every path out of ``run.py``.  The resource tracker is the
    one that matters on a clean run: left alone it exits only once it
    sees our end of its pipe close, which is *after* we are gone, so
    whoever waited for us still finds it running.
    """
    from multiprocessing import resource_tracker

    try:
        from repro.core import pool
    except ImportError:  # no program beside the benchmark: nothing pooled
        pass
    else:
        pool.shutdown()
    for child in multiprocessing.active_children():
        child.terminate()
        child.join(5)
        if child.is_alive():
            child.kill()
            child.join()
    tracker = resource_tracker._resource_tracker
    fd, pid = tracker._fd, tracker._pid
    if fd is not None:
        # What ResourceTracker._stop() does; spelled out because that
        # method is private and not in every supported Python.
        tracker._fd = tracker._pid = None
        os.close(fd)
        if pid is not None:
            with contextlib.suppress(ChildProcessError):
                os.waitpid(pid, 0)


class Hygiene:
    """Snapshot before a workload, :meth:`leaks` after it.

    The resource tracker is started first: it is spawned lazily by the
    first shared-memory segment or pool and keeps a pipe open for the
    life of the interpreter, which would otherwise read as a leaked fd.
    """

    def __init__(self):
        from multiprocessing import resource_tracker

        resource_tracker.ensure_running()
        self.shm = _listing("/dev/shm")
        self.tmp = _listing(tempfile.gettempdir())
        self.work = _listing(WORK_ROOT)
        self.fds = _open_fds()

    def leaks(self):
        from repro.core import pool

        pool.shutdown()
        gc.collect()
        found = []
        for label, before, path in (
                ("shm segment", self.shm, "/dev/shm"),
                ("temp entry", self.tmp, tempfile.gettempdir()),
                ("work dir", self.work, WORK_ROOT)):
            new = _listing(path) - before
            if new:
                found.append(f"{label}: {sorted(new)}")
        kids = multiprocessing.active_children() or _children()
        if kids:
            found.append(f"process: {kids}")
        fds = sorted(f"{fd} -> {target}"
                     for fd, target in _open_fds().items()
                     if self.fds.get(fd) != target)
        if fds:
            found.append(f"fd: {fds}")
        return found


# ----------------------------------------------------------------------
# In-process CLI calls
# ----------------------------------------------------------------------
def cli_call(argv):
    """``repro.cli.main(argv)`` with stdout captured.

    Returns ``(rc, stdout, stderr)``.  An exception or an argparse exit
    is an rc, not a crash: a failed op must be counted, and the run must
    go on to report it.
    """
    from repro import cli

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = cli.main(argv)
        except SystemExit as exc:
            rc = exc.code if isinstance(exc.code, int) else 1
        except Exception:
            rc = -1
            traceback.print_exc(file=err)
    return rc, out.getvalue(), err.getvalue()


# ----------------------------------------------------------------------
# The timed loop
# ----------------------------------------------------------------------
def run_units(unit, seconds):
    """Call ``unit(i)`` until ``seconds`` have passed; at least twice.

    Unit 0 is the warm-up and is not counted in the budget; the garbage
    collector runs between units, outside whatever ``unit`` times.  A
    traced run spans its odd units and leaves the even ones bare, so two
    timed units is the least that gives it both.  Returns the results of
    the timed units (warm-up dropped).
    """
    unit(0)
    gc.collect()
    results = []
    start = time.perf_counter()
    i = 1
    while True:
        results.append(unit(i))
        gc.collect()
        i += 1
        if i > 2 and time.perf_counter() - start >= seconds:
            return results


def timed_setup(setup, reps):
    """Run ``setup()`` ``reps`` times; return the last result and the
    median duration.  Set-up is repeated because one sample of it would
    be the noisiest number in the report."""
    durations = []
    result = None
    for _ in range(reps):
        result = None  # release the previous inputs before rebuilding
        gc.collect()
        t0 = time.perf_counter()
        result = setup()
        durations.append(time.perf_counter() - t0)
    return result, median(durations)
