"""The live pipeline end to end: bit-identity, windowing, both sources.

The acceptance contract: a trace followed live — from a file or a
shared-memory region, chunked however the source chunks it — decodes
bit-identically to the one-shot post-mortem columnar path, so every
tool renders byte-identical output from a replay at instant speed; and
with a window bound the monitor's residency is O(window), not O(trace),
with the evictions accounted.
"""

import multiprocessing
import os
import time

import numpy as np
import pytest

from repro.cli import build_parser
from repro.core.columnar import decode_records_columnar
from repro.core.registry import default_registry
from repro.core.writer import save_records
from repro.ksim.kernel import SymbolTable
from repro.live.monitor import LiveMonitor
from repro.live.source import Replayer, ShmFollower
from repro.reports import FLEET_TOOLS, entry
from repro.workloads import run_contention


def table_report(tool, *flags):
    """``trace -> str``: ``tool``'s entry in the CLI table, under the
    options its post-mortem subcommand parses from ``flags``."""
    opts = build_parser().parse_args([tool, "TRACE", *flags])
    return lambda trace: entry(tool)(trace, SymbolTable(), opts)


# Every row `follow --tool` offers; a row added to the table is covered
# here without an edit.
TOOL_RENDERERS = {tool: table_report(tool) for tool in FLEET_TOOLS}


@pytest.fixture(scope="module")
def contention_records():
    _kernel, facility, _result = run_contention(
        ncpus=4, workers_per_cpu=2, iterations=30, seed=5)
    return facility.flush()


def assert_batches_identical(a, b):
    """Column-for-column equality of two merged batches."""
    assert len(a) == len(b)
    for col in ("cpu", "seq", "offset", "ts32", "major", "minor",
                "length", "dlen", "timed"):
        assert np.array_equal(getattr(a, col), getattr(b, col)), col
    assert a.time.tolist() == b.time.tolist()
    # Payloads: gather the first two data words of every row.
    for k in (0, 1):
        va = np.where(a.dlen > k, a.data_column(k), np.uint64(0))
        vb = np.where(b.dlen > k, b.data_column(k), np.uint64(0))
        assert np.array_equal(va, vb), f"payload word {k}"


class TestReplayEquality:
    @pytest.mark.parametrize("chunk", [1, 7, None])
    def test_chunked_replay_matches_postmortem_columns(
            self, contention_records, chunk):
        reg = default_registry()
        post = decode_records_columnar(contention_records, registry=reg)
        mon = LiveMonitor(registry=reg)
        mon.drain(Replayer(contention_records, speed=0.0,
                           max_per_poll=chunk),
                  idle_timeout_s=0)
        live = mon.trace()
        assert live.cpus == post.cpus
        assert_batches_identical(post.batch(), live.batch())
        assert sorted((a.cpu, a.seq, a.offset, a.kind)
                      for a in post.anomalies) == \
            sorted((a.cpu, a.seq, a.offset, a.kind)
                   for a in live.anomalies)

    @pytest.mark.parametrize("tool", sorted(TOOL_RENDERERS))
    def test_every_tool_renders_identically(self, contention_records, tool):
        """The replay-determinism acceptance: each live tool's render
        of a followed trace is byte-identical to its post-mortem
        render — twice over, to prove the replay is deterministic."""
        reg = default_registry()
        post = decode_records_columnar(contention_records, registry=reg)
        renders = []
        for _ in range(2):
            mon = LiveMonitor(registry=reg)
            mon.drain(Replayer(contention_records, speed=0.0, max_per_poll=5),
                      idle_timeout_s=0)
            renders.append(TOOL_RENDERERS[tool](mon.trace()))
        assert renders[0] == renders[1]                 # deterministic
        assert renders[0] == TOOL_RENDERERS[tool](post)  # and post-mortem


class TestBoundedWindow:
    def test_memory_stays_o_window_on_a_long_trace(self, contention_records):
        """Follow a trace ~10x the window: residency must track the
        window, the excess must be accounted as evicted."""
        reg = default_registry()
        ref = decode_records_columnar(contention_records, registry=reg)
        total = len(ref.batch())
        bound = max(total // 10, 1)
        mon = LiveMonitor(registry=reg, window_events=bound)
        mon.drain(Replayer(contention_records, speed=0.0, max_per_poll=1),
                  idle_timeout_s=0)
        assert mon.evicted_events > 0
        # Eviction granularity is one absorbed chunk (here: one buffer),
        # so residency is bounded by window + the largest single buffer.
        largest_chunk = max(
            len(decode_records_columnar([r], registry=reg).batch())
            for r in contention_records)
        assert mon.total_events <= bound + largest_chunk
        assert mon.total_events + mon.evicted_events == total
        # The window still renders through every tool.
        for render in TOOL_RENDERERS.values():
            assert isinstance(render(mon.trace()), str)

    def test_window_holds_the_newest_arrivals(self, contention_records):
        """FIFO eviction: the survivors are exactly a suffix of the
        arrival stream (one buffer per poll), never a middle slice."""
        reg = default_registry()
        counts = [len(decode_records_columnar([r], registry=reg).batch())
                  for r in contention_records]
        mon = LiveMonitor(registry=reg, window_events=50)
        mon.drain(Replayer(contention_records, speed=0.0, max_per_poll=1),
                  idle_timeout_s=0)
        live = mon.trace().batch()
        rem = mon.total_events
        suffix = set()
        for r, n in zip(reversed(contention_records), reversed(counts)):
            if rem <= 0:
                break
            if n:
                suffix.add((r.cpu, r.seq))
            rem -= n
        assert rem == 0     # whole-chunk eviction: an exact suffix
        assert set(zip(live.cpu.tolist(), live.seq.tolist())) == suffix


class TestShmLive:
    def test_in_process_live_follow_matches_one_shot(self):
        """Interleaved logging and polling over a real shm region: the
        windowed trace equals a one-shot decode of the very records
        the follower emitted."""
        from repro.core.majors import Major
        from repro.shm.region import ShmTraceRegion

        reg = default_registry()
        # 150 events x 3 words each fits well inside 128x8 words per
        # CPU: the ring never wraps, so completeness can be asserted.
        region = ShmTraceRegion.create(ncpus=2, buffer_words=128,
                                       num_buffers=8)
        try:
            a = ShmTraceRegion.attach(region.name)
            b = ShmTraceRegion.attach(region.name)
            la, lb = a.logger(0), b.logger(1)
            src = ShmFollower(region, lag=1)
            mon = LiveMonitor(registry=reg)
            tee = []
            for i in range(150):
                la.log_words(Major.TEST, 1, [i, i * 3])
                lb.log_words(Major.TEST, 2, [i, i * 5])
                if i % 13 == 0:
                    recs = src.poll()
                    tee.extend(recs)
                    mon.feed(recs)
            region.set_done()
            while True:
                recs = src.poll()
                if not recs:
                    break
                tee.extend(recs)
                mon.feed(recs)
            recs = src.finish()
            tee.extend(recs)
            mon.feed(recs)
            a.close()
            b.close()

            post = decode_records_columnar(tee, registry=reg)
            live = mon.trace()
            assert_batches_identical(post.batch(), live.batch())
            for cpu, mult in ((0, 3), (1, 5)):
                evs = [e for e in live.cpu_batch(cpu).events()
                       if e.major == Major.TEST]
                assert [list(e.data) for e in evs] == \
                    [[i, i * mult] for i in range(150)]
            for render in TOOL_RENDERERS.values():
                assert render(live) == render(post)
        finally:
            region.close()
            region.unlink()

    def test_drain_after_done_absorbs_every_event(self):
        """``LiveMonitor.drain`` over a finished region: the follower's
        ``done`` ends the loop and the ``finish`` sweep leaves nothing
        behind the lag gate."""
        from repro.core.majors import Major
        from repro.shm.region import ShmTraceRegion

        region = ShmTraceRegion.create(ncpus=1, buffer_words=128,
                                       num_buffers=8)
        try:
            attached = ShmTraceRegion.attach(region.name)
            try:
                logger = attached.logger(0)
                for i in range(200):
                    logger.log1(Major.TEST, 1, i)
                region.set_done()
                mon = LiveMonitor(registry=default_registry())
                mon.drain(ShmFollower(region, lag=1), idle_timeout_s=0)
            finally:
                attached.close()
            assert [e.data[0] for e in mon.trace().cpu_batch(0).events()
                    if e.major == Major.TEST] == list(range(200))
        finally:
            region.close()
            region.unlink()


# -- cross-process: real writer processes, live follower in the parent --
_wanted = os.environ.get("SHM_START_METHODS")
START_METHODS = [m for m in ("fork", "spawn")
                 if m in multiprocessing.get_all_start_methods()
                 and (not _wanted or m in _wanted.split(","))]


@pytest.mark.skipif(not START_METHODS,
                    reason="no multiprocessing start method available")
class TestShmCrossProcess:
    @pytest.mark.parametrize("method", START_METHODS)
    def test_live_follow_while_writers_race(self, method):
        from repro.core.majors import Major
        from repro.shm.procs import expected_payloads, writer_main
        from repro.shm.region import ShmTraceRegion

        writers, events, data_words = 2, 400, 2
        reg = default_registry()
        ctx = multiprocessing.get_context(method)
        region = ShmTraceRegion.create(ncpus=writers, buffer_words=256,
                                       num_buffers=8)
        try:
            procs = [
                ctx.Process(target=writer_main,
                            args=(region.name, w, events, data_words))
                for w in range(writers)
            ]
            for p in procs:
                p.start()
            src = ShmFollower(region, lag=1)
            mon = LiveMonitor(registry=reg)
            tee = []
            while any(p.is_alive() for p in procs):
                recs = src.poll()
                tee.extend(recs)
                mon.feed(recs)
                time.sleep(0.002)
            for p in procs:
                p.join()
                assert p.exitcode == 0
            region.set_done()
            recs = src.poll()
            tee.extend(recs)
            mon.feed(recs)
            recs = src.finish()
            tee.extend(recs)
            mon.feed(recs)

            # Pipeline bit-identity on whatever the follower emitted...
            post = decode_records_columnar(tee, registry=reg)
            live = mon.trace()
            assert_batches_identical(post.batch(), live.batch())
            # ...and completeness: geometry is wrap-free, so every
            # logged payload must have arrived, in order.
            issued = expected_payloads(writers, events, data_words)
            for cpu in range(writers):
                got = [list(e.data) for e in live.cpu_batch(cpu).events()
                       if e.major == Major.TEST]
                assert got == issued[cpu]
        finally:
            region.close()
            region.unlink()


class TestFollowCli:
    @pytest.mark.parametrize("tool,cmd", [(t, t) for t in FLEET_TOOLS])
    def test_replay_instant_matches_postmortem_cli(
            self, tmp_path, capsys, contention_records, tool, cmd):
        """`follow X --replay instant --tool T` prints byte-identical
        stdout to the post-mortem `T X` subcommand."""
        from repro.cli import main

        path = str(tmp_path / "run.k42")
        save_records(path, contention_records)
        assert main([cmd, path]) == 0
        post = capsys.readouterr().out
        assert main(["follow", path, "--tool", tool, "--replay", "instant",
                     "--idle-timeout", "0"]) == 0
        live = capsys.readouterr()
        assert live.out == post
        assert "live window:" in live.err

    def test_follow_growing_file_cli(self, tmp_path, capsys,
                                     contention_records):
        from repro.cli import main

        path = str(tmp_path / "done.k42")
        save_records(path, contention_records)
        assert main(["sched", path]) == 0
        post = capsys.readouterr().out
        # A complete file followed with a zero idle timeout: one pass
        # over the frames, then the idle stop — same final snapshot.
        assert main(["follow", path, "--tool", "sched",
                     "--idle-timeout", "0"]) == 0
        assert capsys.readouterr().out == post

    def test_follow_needs_a_source(self, capsys):
        from repro.cli import main

        assert main(["follow"]) == 2
        assert "needs a trace file" in capsys.readouterr().err

    def test_follow_window_bound_reports_eviction(
            self, tmp_path, capsys, contention_records):
        from repro.cli import main

        path = str(tmp_path / "win.k42")
        save_records(path, contention_records)
        assert main(["follow", path, "--tool", "locks",
                     "--replay", "instant", "--window-events", "40",
                     "--idle-timeout", "0"]) == 0
        err = capsys.readouterr().err
        assert "evicted" in err
