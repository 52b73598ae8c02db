"""True cross-process runs: independent OS processes over one segment.

The acceptance leg: two or more OS processes reserve/commit into the
same shared-memory buffers with no lock held across reserve/log/commit,
a collector process drains them into the standard trace format, and the
drained file decodes complete and bit-identically through every reader
path.  Parametrized over both ``fork`` and ``spawn`` start methods —
spawn is the macOS/Windows-style path where children re-import modules
rather than inheriting state.

Resource hygiene is part of the contract: every run — including one
whose writer is SIGKILLed mid-protocol — must leave no shared-memory
segment behind and no ``resource_tracker`` complaints on stderr (the
subprocess tests assert on literal interpreter stderr, where the
tracker prints at exit).
"""

import multiprocessing
import os
import signal
import subprocess
import sys
import textwrap
import threading
import time

import pytest

from repro.core.majors import Major
from repro.core.stream import TraceReader
from repro.core.writer import load_records
from repro.shm import ShmCollector, ShmLaneBusy, ShmTraceRegion, run_shm_workload
from repro.shm.procs import expected_payloads, writer_main
from tests.core.test_parallel import assert_all_paths_identical

# CI runs one start method per matrix leg via SHM_START_METHODS=fork
# (or spawn); locally, unset, both parametrize in one run.
_wanted = os.environ.get("SHM_START_METHODS")
START_METHODS = [m for m in ("fork", "spawn")
                 if m in multiprocessing.get_all_start_methods()
                 and (not _wanted or m in _wanted.split(","))]

pytestmark = pytest.mark.skipif(
    not START_METHODS, reason="no multiprocessing start method available")


def shm_segments():
    """Names of live POSIX shm segments (Linux; empty set elsewhere)."""
    try:
        return {n for n in os.listdir("/dev/shm") if n.startswith("psm_")}
    except FileNotFoundError:
        return set()


def drained_complete(path, writers, events, data_words):
    """Decode ``path`` on every reader path and demand completeness."""
    records = load_records(path)
    trace = assert_all_paths_identical(records, workers=2)
    bad = [a for a in trace.anomalies if a.kind != "missing-anchor"]
    if bad:  # dump full context so a one-in-N failure documents itself
        by_key = {(r.cpu, r.seq): r for r in records}
        lines = []
        for a in bad:
            r = by_key.get((a.cpu, a.seq))
            ctx = "record missing" if r is None else (
                f"committed={r.committed} fill={r.fill_words} "
                f"partial={r.partial} words[{max(0, a.offset - 2)}:"
                f"{a.offset + 4}]="
                f"{[hex(w) for w in r.words[max(0, a.offset - 2):a.offset + 4]]}")
            lines.append(f"{a.kind} cpu={a.cpu} seq={a.seq} "
                         f"off={a.offset}: {a.detail} | {ctx}")
        raise AssertionError("drained trace has anomalies:\n" +
                            "\n".join(lines))
    issued = expected_payloads(writers, events, data_words)
    for cpu in range(writers):
        got = [list(e.data) for e in trace.events(cpu)
               if e.major == Major.TEST]
        assert got == issued[cpu], (
            f"cpu {cpu}: drained {len(got)} events, "
            f"issued {len(issued[cpu])}")
    return trace


@pytest.mark.parametrize("method", START_METHODS)
class TestCrossProcess:
    def test_concurrent_collector_complete_trace(self, method, tmp_path):
        """Writers race a live collector; wrap-free geometry, so the
        drained trace must hold every event of every writer."""
        before = shm_segments()
        out = str(tmp_path / f"shm-{method}.k42")
        result = run_shm_workload(
            out, writers=2, events=300, data_words=2,
            buffer_words=64, num_buffers=32,  # 2048 words >= 300*3+slack
            start_method=method)
        assert result.collector["dropped"] == 0, result.collector
        assert result.collector["frames"] > 0
        drained_complete(out, 2, 300, 2)
        assert shm_segments() == before  # segment unlinked

    def test_post_quiesce_collector(self, method, tmp_path):
        out = str(tmp_path / f"shm-post-{method}.k42")
        result = run_shm_workload(
            out, writers=2, events=200, data_words=1,
            buffer_words=64, num_buffers=16,
            start_method=method, concurrent_collector=False)
        assert result.collector["dropped"] == 0
        drained_complete(out, 2, 200, 1)

    def test_many_writers(self, method, tmp_path):
        if method == "spawn":
            pytest.skip("4-process spawn startup dominates; fork covers it")
        out = str(tmp_path / "shm-many.k42")
        result = run_shm_workload(
            out, writers=4, events=250, data_words=2,
            buffer_words=128, num_buffers=16,
            start_method=method)
        assert result.collector["dropped"] == 0
        drained_complete(out, 4, 250, 2)


class TestContention:
    """Who races whom on a CAS.  Binding a lane is exclusive, so an owned
    lane's CAS only ever races threads of its owner; two processes still
    race on unowned words (the claim word), under the fcntl lock."""

    def test_two_threads_hammer_one_owned_lane(self):
        """The paper's many-threads-one-CPU case: two threads of the
        owning process log into one lane; each stream arrives exact."""
        region = ShmTraceRegion.create(ncpus=1, buffer_words=64,
                                       num_buffers=64)
        attached = ShmTraceRegion.attach(region.name)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            loggers = [attached.logger(0) for _ in range(2)]
            barrier = threading.Barrier(2, timeout=30)

            def work(minor, logger):
                barrier.wait()
                for i in range(CONTEND_EVENTS):
                    logger.log_words(Major.TEST, minor, [i])

            threads = [threading.Thread(target=work, args=(minor, lg))
                       for minor, lg in zip((1, 2), loggers)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(60)
                assert not t.is_alive()
            trace = TraceReader(check_committed=True).decode_records(
                ShmCollector(region).finalize())
            assert [a.kind for a in trace.anomalies
                    if a.kind != "missing-anchor"] == []
            per_minor = {1: [], 2: []}
            for e in trace.events(0):
                if e.major == Major.TEST:
                    per_minor[e.minor].append(list(e.data))
            for minor in (1, 2):
                assert per_minor[minor] == [[i] for i in
                                            range(CONTEND_EVENTS)]
        finally:
            sys.setswitchinterval(interval)
            attached.close()
            region.close()
            region.unlink()

    def test_two_processes_increment_one_unowned_word(self):
        """Load-then-CAS increments from two processes on the claim
        word's path: the fcntl micro-lock must lose no update."""
        ctx = multiprocessing.get_context(START_METHODS[0])
        region = ShmTraceRegion.create(ncpus=1, buffer_words=8,
                                       num_buffers=2)
        try:
            barrier = ctx.Barrier(2)
            procs = [ctx.Process(target=_increment_main,
                                 args=(region.name, INCREMENTS, barrier))
                     for _ in range(2)]
            for p in procs:
                p.start()
            for p in procs:
                p.join(60)
                assert not p.is_alive()
                assert p.exitcode == 0
            assert region.owner_word(0).peek() == 2 * INCREMENTS
        finally:
            region.close()
            region.unlink()

    def test_two_processes_race_to_bind_lane_0(self):
        """Exactly one process binds and logs; the other is refused
        with ShmLaneBusy naming the winner — while the winner still
        holds the lane, so within seconds, not after it exits."""
        ctx = multiprocessing.get_context(START_METHODS[0])
        region = ShmTraceRegion.create(ncpus=1, buffer_words=64,
                                       num_buffers=16)
        procs = []
        try:
            barrier, results, release = ctx.Barrier(2), ctx.Queue(), \
                ctx.Event()
            procs = [ctx.Process(target=_bind_main,
                                 args=(region.name, CONTEND_EVENTS, barrier,
                                       results, release))
                     for _ in range(2)]
            for p in procs:
                p.start()
            got = sorted(results.get(timeout=30) for _ in procs)
            release.set()
            for p in procs:
                p.join(30)
                assert not p.is_alive()
                assert p.exitcode == 0
            (bound, winner, _), (busy, _loser, named) = got
            assert (bound, busy) == ("bound", "busy")
            assert named == winner
            trace = TraceReader(check_committed=True).decode_records(
                ShmCollector(region).finalize())
            assert [list(e.data) for e in trace.events(0)
                    if e.major == Major.TEST] == \
                [[i] for i in range(CONTEND_EVENTS)]
        finally:
            release.set()
            for p in procs:
                if p.is_alive():
                    p.terminate()
                    p.join(5)
            region.close()
            region.unlink()


CONTEND_EVENTS = 200
INCREMENTS = 2000


def _increment_main(name, n, barrier):
    region = ShmTraceRegion.attach(name)
    try:
        word = region.owner_word(0)  # nobody claims lane 0 here
        barrier.wait(30)
        for _ in range(n):
            while True:
                old = word.load()
                if word.compare_and_store(old, old + 1):
                    break
    finally:
        region.close()


def _bind_main(name, events, barrier, results, release):
    region = ShmTraceRegion.attach(name)
    try:
        barrier.wait(30)
        try:
            logger = region.logger(0)
        except ShmLaneBusy as exc:
            results.put(("busy", os.getpid(), exc.pid))
            return
        for i in range(events):
            logger.log_words(Major.TEST, 1, [i])
        results.put(("bound", os.getpid(), None))
        release.wait(30)
    finally:
        region.close()


class TestStartBarrier:
    def test_writer_failing_before_barrier_does_not_hang_peers(
            self, tmp_path, monkeypatch):
        """A writer whose bind fails breaks the start barrier, so its
        peers exit at once and the run names every failed writer."""
        if "fork" not in START_METHODS:
            pytest.skip("the failing bind is planted through fork")
        bind = ShmTraceRegion.logger

        def failing_bind(self, cpu, **kw):
            if cpu == 1:
                raise ShmLaneBusy(self.name, cpu, 1)
            return bind(self, cpu, **kw)

        monkeypatch.setattr(ShmTraceRegion, "logger", failing_bind)
        t0 = time.monotonic()
        with pytest.raises(RuntimeError) as err:
            run_shm_workload(str(tmp_path / "failed.k42"), writers=3,
                             events=50, buffer_words=64, num_buffers=8,
                             start_method="fork")
        assert time.monotonic() - t0 < 20
        for cpu in range(3):
            assert f"shm-writer-{cpu} exited with code" in str(err.value)


class TestResourceHygiene:
    """No leaks, no tracker noise — even when writers die badly."""

    def test_workload_leaves_no_tracker_warnings(self, tmp_path):
        """Run a full workload in a fresh interpreter: its stderr must
        not mention the resource tracker (leak warnings print at exit)."""
        out = str(tmp_path / "clean.k42")
        code = textwrap.dedent(f"""
            from repro.shm import run_shm_workload
            r = run_shm_workload({out!r}, writers=2, events=100,
                                 buffer_words=64, num_buffers=16)
            assert r.collector["dropped"] == 0
        """)
        proc = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True,
            env={**os.environ, "PYTHONPATH": "src"}, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert "resource_tracker" not in proc.stderr, proc.stderr
        assert "leaked" not in proc.stderr, proc.stderr

    def test_sigkilled_writer_leaks_nothing(self, tmp_path):
        """SIGKILL a writer mid-commit: the parent still drains, closes
        and unlinks; a fresh interpreter's stderr stays silent."""
        out = str(tmp_path / "killed.k42")
        code = textwrap.dedent(f"""
            import multiprocessing, os, signal, time
            from repro.shm import ShmCollector, ShmTraceRegion
            from repro.shm.procs import writer_main

            ctx = multiprocessing.get_context()
            region = ShmTraceRegion.create(ncpus=1, buffer_words=64,
                                           num_buffers=8)
            try:
                p = ctx.Process(target=writer_main,
                                args=(region.name, 0, 50, 1, None, True))
                p.start()
                # let it log until the ring shows real traffic
                deadline = time.monotonic() + 30
                while region.index_word(0).peek() < 256:
                    assert time.monotonic() < deadline, "writer too slow"
                    time.sleep(0.001)
                os.kill(p.pid, signal.SIGKILL)
                p.join(30)
                assert p.exitcode == -signal.SIGKILL
                region.set_done()
                stats = ShmCollector(region).drain_to_file({out!r},
                                                           timeout_s=10)
                assert stats.frames > 0
            finally:
                region.close()
                region.unlink()
        """)
        before = shm_segments()
        proc = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True,
            env={**os.environ, "PYTHONPATH": "src"}, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert "resource_tracker" not in proc.stderr, proc.stderr
        assert shm_segments() == before
        # The torn trace still loads and decodes without raising; a
        # half-committed final buffer may surface as anomalies, never
        # as an exception.
        records = load_records(out)
        assert records
        assert_all_paths_identical(records, workers=2)

    def test_writer_killed_concurrent_with_collector(self, tmp_path):
        """The full scenario in-process: writer killed while a live
        collector drains; everything shuts down and unlinks."""
        before = shm_segments()
        method = START_METHODS[0]
        ctx = multiprocessing.get_context(method)
        out = str(tmp_path / "killed-live.k42")
        region = ShmTraceRegion.create(ncpus=1, buffer_words=64,
                                       num_buffers=8)
        try:
            p = ctx.Process(target=writer_main,
                            args=(region.name, 0, 50, 1, None, True))
            p.start()
            deadline = time.monotonic() + 30
            while region.index_word(0).peek() < 128:
                assert time.monotonic() < deadline
                time.sleep(0.001)
            os.kill(p.pid, signal.SIGKILL)
            p.join(30)
            region.set_done()
            stats = ShmCollector(region).drain_to_file(out, timeout_s=10)
            assert stats.frames > 0
        finally:
            region.close()
            region.unlink()
        assert shm_segments() == before
