"""Model checking across the shared-memory seam.

:class:`~repro.check.harness.CheckedSystem` proves the protocol over
in-process stand-ins; this variant proves it over the *real* shm stack:
a genuine :class:`~repro.shm.region.ShmTraceRegion` segment, one
independent :meth:`~repro.shm.region.ShmTraceRegion.attach` per writer
(each task holds its own mapping of the segment, exactly as a separate
process would), and a real :class:`~repro.shm.collector.ShmCollector`
whose *drained output* — not the ring — is what the final invariants
judge.  Each writer's lane store is wrapped in the same
:class:`~repro.check.instrument.SteppedStore` the core harness uses, so
every cross-process shared-memory operation is a scheduling point and
counterexamples stay replayable.

What is modeled vs. real: the writers are cooperative tasks in one
process (determinism requires it), but every load, CAS, and trace-word
store goes through the same segment words — and the same stores and
locks — that separate OS processes use.  The only cross-process effect this
cannot exercise is a torn 8-byte store, which the platform (and the
paper's hardware) rules out anyway.

Beyond the base invariants, shm mode checks the collector seam:

* **drain-covers-ring** — every buffer that holds reserved words at
  quiescence must appear in the drained trace (this is the flush
  contract; a collector that "misses the flush" silently loses the
  final partial buffers);
* **collector-dropped-in-wrap-free-run** — the ring cannot lap the
  collector in a wrap-free run, so any reported drop is a cursor bug;
* mid-schedule drained records obey the reader trust gate: a drained
  buffer whose committed count covers its fill must decode garble-free
  with genuine events.

Lane ownership (:mod:`repro.shm.lanes`) is checked too.  Each simulated
process has its own pid and liveness: the writers bound to one CPU are
threads of that CPU's process, which claims the lane at setup, and
``rivals`` are single-writer processes that claim CPU 0's lane inside
the schedule.  A process is alive while any of its tasks still runs.
After every step:

* **lane-owned-twice** — no lane is held by two live processes;
* **lane-generation** — a lane's owner generation only ever steps by
  one, so a takeover is always generation + 1.

Three shm-specific mutants validate that the checker actually watches
this seam (see :data:`SHM_MUTANTS`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple

from repro.check.coop import READY, CoopRuntime
from repro.check.harness import (
    CheckConfig,
    CheckedSystem,
    ConfigError,
    InvariantViolation,
    Violation,
)
import numpy as np

from repro.check.instrument import (
    Probe,
    StepClock,
    SteppedStore,
    TraceWatch,
    lane_names,
)
from repro.check.mutants import MUTANTS, make_logger
from repro.check.oracle import reference_decode
from repro.core.buffers import BufferRecord, TraceControl, decode_commit_word
from repro.core.majors import Major
from repro.core.mask import TraceMask
from repro.core.stream import scan_buffer
from repro.shm.collector import ShmCollector
from repro.shm.lanes import GENERATION_SHIFT, LaneOwner, ShmLaneBusy
from repro.shm.region import ShmTraceRegion


class MissedFlushCollector(ShmCollector):
    """MUTANT: finalize trusts only index-completed buffers.

    A plausible-looking collector bug: on quiescence (or a writer's
    death) it drains what the index says is complete and never emits
    the in-progress partial buffers — so every event in the final
    partial buffer of each CPU is silently lost, and a killed writer's
    torn partial buffer never reaches the reader's heuristics at all.
    """

    def finalize(self) -> List[BufferRecord]:
        return self.poll(lag=0)  # BUG: partial buffers never flushed


class UnlockedClaimOwner(LaneOwner):
    """MUTANT: the lane claim loads the owner word, then plainly stores.

    Two claimers that load the same owner word both win: each believes
    it owns the lane and logs under the thread lock alone.
    """

    def _take(self, word, cur: int, new: int) -> bool:
        word.store(new)  # BUG: a claim between the load and here is lost
        return True


@dataclass
class _SimProcess:
    """One simulated OS process: its pid, its lanes, its tasks."""

    pid: int
    owner: LaneOwner
    tids: List[int] = field(default_factory=list)
    #: False until a pid-reusing rival finds the pid free.
    born: bool = True


@dataclass
class ShmMutantSpec:
    """A registered shm-seam mutant (attach/drain bug, not a logger bug)."""

    name: str
    summary: str
    expected: Tuple[str, ...]
    config: Dict[str, object]


SHM_MUTANTS: Dict[str, ShmMutantSpec] = {
    spec.name: spec
    for spec in (
        ShmMutantSpec(
            "stale-attach-offset",
            "attacher maps its trace memory at another CPU's region",
            ("double-write",),
            {"shm": True, "shm_cpus": 2, "writers": 2, "events": 1,
             "preemption_bound": 1},
        ),
        ShmMutantSpec(
            "missed-flush-on-death",
            "collector finalize never emits in-progress partial buffers",
            ("lost-buffer-at-flush", "lost-or-reordered-events",
             "torn-not-flagged"),
            {"shm": True, "writers": 1, "events": 1,
             "preemption_bound": 0},
        ),
        ShmMutantSpec(
            "unlocked-lane-claim",
            "lane claim loads the owner word, then stores it without a CAS",
            ("lane-owned-twice",),
            {"shm": True, "writers": 1, "events": 1, "rivals": 2,
             "preemption_bound": 2},
        ),
    )
}


class ShmCheckedSystem(CheckedSystem):
    """A checked system whose shared state is a real shm segment.

    Mirrors the :class:`CheckedSystem` interface the schedule driver
    uses (``runtime``, ``after_step``, ``final_checks``, ``close``) but
    builds everything over one :class:`ShmTraceRegion`: writer ``w``
    attaches the segment independently and binds CPU ``w % shm_cpus``
    as a thread of that CPU's simulated process.
    Logger mutants from :data:`~repro.check.mutants.MUTANTS` compose
    with shm mode (the mutant logger simply runs over shm-backed
    words); shm-specific mutants are wired here.
    """

    def __init__(self, config: CheckConfig) -> None:  # noqa: C901
        config.validate()
        if config.mutant is not None and \
                config.mutant not in MUTANTS and \
                config.mutant not in SHM_MUTANTS:
            raise KeyError(
                f"unknown mutant {config.mutant!r}; known: "
                f"{sorted(MUTANTS) + sorted(SHM_MUTANTS)}"
            )
        self.config = config
        self.runtime = CoopRuntime()
        self.clock = StepClock(self.runtime)
        self.mask = TraceMask()
        self.mask.enable_all()
        self.payloads = config.payloads()
        ncpus = config.shm_cpus
        #: Shared double-write ownership, keyed by absolute segment word.
        self.owner: Dict[int, Optional[int]] = {}
        self.probes = [Probe(self.runtime, config.buffer_words)
                       for _ in range(ncpus)]
        self._index_prev = [0] * ncpus
        self._booked_prev = [0] * ncpus
        self._generation_prev = [0] * ncpus
        self.processes: List[_SimProcess] = []
        #: Writers that log nothing by design: refused or unborn rivals.
        self.silent: Set[int] = set()
        self._closed = False

        self.region = ShmTraceRegion.create(
            ncpus=ncpus,
            buffer_words=config.buffer_words,
            num_buffers=config.num_buffers,
            start_anchors=False,
        )
        self._attached: List[ShmTraceRegion] = []
        try:
            # Sequential setup: anchor buffer 0 on every CPU through the
            # instrumented path (yield points are no-ops on the main
            # thread), exactly like the base harness's setup logger.
            for cpu in range(ncpus):
                ctl = self._make_control(self.region, cpu, cpu)
                make_logger(None, ctl, self.mask, self.clock).start()

            logger_mutant = (
                config.mutant if config.mutant in MUTANTS else None
            )
            by_cpu: Dict[int, _SimProcess] = {}
            for w in range(config.writers):
                cpu = w % ncpus
                if cpu not in by_cpu:
                    by_cpu[cpu] = self._process(100 + cpu)
                proc = by_cpu[cpu]
                wregion = self._attach(proc)
                wregion.claim(cpu)
                view_cpu = cpu
                if (config.mutant == "stale-attach-offset"
                        and w == config.writers - 1 and cpu != 0):
                    # BUG under test: this attach computed its trace-
                    # memory offset from stale geometry and maps CPU 0's
                    # region while its control words are its own CPU's.
                    view_cpu = 0
                ctl = self._make_control(wregion, cpu, view_cpu)
                logger = make_logger(logger_mutant, ctl, self.mask,
                                     self.clock)
                task = self.runtime.spawn(f"w{w}",
                                          self._make_writer(logger, w))
                proc.tids.append(task.tid)
            for r in range(config.rivals):
                w = config.writers + r
                proc = self._process(by_cpu[0].pid if config.pid_reuse
                                     else 200 + r)
                proc.born = not config.pid_reuse
                task = self.runtime.spawn(
                    f"r{r}", self._make_rival(proc, self._attach(proc), w))
                proc.tids.append(task.tid)

            collector_cls = (
                MissedFlushCollector
                if config.mutant == "missed-flush-on-death"
                else ShmCollector
            )
            if config.reader:
                self.runtime.spawn("reader", self._reader_fn())

            cregion = ShmTraceRegion.attach(self.region.name)
            self._attached.append(cregion)
            self.collector = collector_cls(cregion, lag=1)
            self.live_drained: List[BufferRecord] = []
            if config.collector_steps > 0:
                self.runtime.spawn("collector", self._collector_fn())
        except BaseException:
            self.close()
            raise

    # -- wiring ----------------------------------------------------------
    def _process(self, pid: int) -> _SimProcess:
        cls = (UnlockedClaimOwner if self.config.mutant == "unlocked-lane-claim"
               else LaneOwner)
        proc = _SimProcess(pid, cls(pid, alive=self._pid_alive))
        self.processes.append(proc)
        return proc

    def _attach(self, proc: _SimProcess) -> ShmTraceRegion:
        region = ShmTraceRegion.attach(self.region.name)
        region.lane_owner = proc.owner
        self._attached.append(region)
        return region

    def _alive(self, proc: _SimProcess) -> bool:
        return proc.born and any(self.runtime.tasks[t].state == READY
                                 for t in proc.tids)

    def _pid_alive(self, pid: int) -> bool:
        return any(self._alive(p) for p in self.processes if p.pid == pid)

    def _make_control(self, region: ShmTraceRegion, cpu: int,
                      view_cpu: int) -> TraceControl:
        lay = region.layout
        probe = self.probes[cpu]
        trace_at = lay.trace_words(view_cpu)
        store = SteppedStore(
            region.lane_store(cpu),
            names=lane_names(lay.cpu_base(cpu), lay.num_buffers,
                             f"cpu{cpu}."),
            yield_fn=self.runtime.yield_point,
            observer=probe.observe,
            # Keyed by absolute segment word and shared by every attach,
            # so overlapping reservations are caught across attaches —
            # or through an attach whose geometry maps it into another
            # CPU's region (the stale-attach failure mode).
            watch=TraceWatch(self.runtime, probe, trace_at,
                             trace_at + lay.total_words_per_cpu,
                             label_at=0, owner=self.owner),
        )
        ctl = region.control(cpu, store=store)
        ctl.trace_at = trace_at  # view_cpu's trace memory, cpu's control
        return ctl

    def _make_writer(self, logger, w: int):
        events = self.payloads[w]

        def fn() -> None:
            for data in events:
                logger.log_words(Major.TEST, w + 1, data)
        return fn

    def _make_rival(self, proc: _SimProcess, region: ShmTraceRegion,
                    w: int):
        """A process that binds CPU 0's lane mid-schedule, logs if its
        claim wins, then exits (closing its attach releases the lane)."""
        events = self.payloads[w]
        original = self.processes[0]

        def fn() -> None:
            if not proc.born:
                if self._alive(original):
                    self.silent.add(w)  # the pid is taken: never born
                    return
                proc.born = True
            at = region.layout.owner_word(0)
            word = SteppedStore(
                region.segment_store, names={at: ("cpu0.owner", None)},
                yield_fn=self.runtime.yield_point).word(at)
            try:
                region.claim(0, owner_word=word)
            except ShmLaneBusy:
                self.silent.add(w)
                return
            logger = make_logger(None, self._make_control(region, 0, 0),
                                 self.mask, self.clock)
            for data in events:
                logger.log_words(Major.TEST, w + 1, data)
            region.close()
        return fn

    def _collector_fn(self):
        def fn() -> None:
            for _ in range(self.config.collector_steps):
                self.runtime.yield_point("collector.poll")
                self.live_drained.extend(self.collector.poll())
        return fn

    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        for region in self._attached:
            region.close()
        self.region.close()
        self.region.unlink()

    # -- views ------------------------------------------------------------
    def ring_view(self) -> List[BufferRecord]:
        """Records for every buffer touched so far, across all CPUs.

        Deliberately not :func:`~repro.core.buffers.read_lane`: this is
        the reference the collector's drained output is judged against
        (``lost-buffer-at-flush``), so it must not be the code under
        test."""
        lay = self.region.layout
        words = self.region.words
        out: List[BufferRecord] = []
        for cpu in range(lay.ncpus):
            index = words[lay.index_word(cpu)]
            cur_seq = index // lay.buffer_words
            trace = lay.trace_words(cpu)
            committed = lay.committed_words(cpu)
            for seq in range(cur_seq + 1):
                fill = (
                    lay.buffer_words if seq < cur_seq
                    else index & (lay.buffer_words - 1)
                )
                if fill == 0:
                    continue
                start = trace + (seq % lay.num_buffers) * lay.buffer_words
                out.append(
                    BufferRecord(
                        cpu=cpu,
                        seq=seq,
                        words=np.array(words[start:start + lay.buffer_words],
                                       dtype=np.uint64),
                        committed=decode_commit_word(
                            seq, words[committed + seq % lay.num_buffers]
                        ),
                        fill_words=fill,
                        partial=(seq == cur_seq),
                    )
                )
        return out

    def drained_view(self) -> List[BufferRecord]:
        """The collector's total output: live polls + its finalize."""
        records = list(self.live_drained) + self.collector.finalize()
        records.sort(key=lambda r: (r.cpu, r.seq))
        return records

    # -- invariants --------------------------------------------------------
    def after_step(self, step: int) -> Optional[Violation]:
        return self._check_lanes(step) or self._check_rings(step)

    def _check_lanes(self, step: int) -> Optional[Violation]:
        seg = self.region.seglock.key
        for cpu in range(self.region.layout.ncpus):
            owners = [p.pid for p in self.processes
                      if self._alive(p) and p.owner.holds(seg + (cpu,))]
            if len(owners) > 1:
                return Violation(
                    "lane-owned-twice",
                    f"cpu {cpu}'s lane is held by live processes {owners} "
                    f"at once", step,
                )
            gen = self.region.owner_word(cpu).peek() >> GENERATION_SHIFT
            prev = self._generation_prev[cpu]
            if gen not in (prev, prev + 1):
                return Violation(
                    "lane-generation",
                    f"cpu {cpu}'s owner generation moved {prev} -> {gen}; "
                    f"a claim must step it by exactly one", step,
                )
            self._generation_prev[cpu] = gen
        return None

    def _check_rings(self, step: int) -> Optional[Violation]:
        lay = self.region.layout
        words = self.region.words
        for cpu in range(lay.ncpus):
            index = words[lay.index_word(cpu)]
            if index > lay.total_words_per_cpu:
                raise ConfigError(
                    f"run wrapped cpu {cpu}'s ring at step {step} "
                    f"(index {index} > {lay.total_words_per_cpu}); "
                    f"enlarge num_buffers"
                )
            if index < self._index_prev[cpu]:
                return Violation(
                    "index-regression",
                    f"cpu {cpu} reservation index moved backwards "
                    f"{self._index_prev[cpu]} -> {index}", step,
                )
            self._index_prev[cpu] = index
            booked = words[lay.booked_word(cpu)]
            if booked < self._booked_prev[cpu]:
                return Violation(
                    "booked-regression",
                    f"cpu {cpu} booked_seq moved backwards "
                    f"{self._booked_prev[cpu]} -> {booked}", step,
                )
            self._booked_prev[cpu] = booked
            if booked > index // lay.buffer_words:
                return Violation(
                    "booked-ahead-of-index",
                    f"cpu {cpu} booked_seq {booked} beyond current "
                    f"buffer {index // lay.buffer_words}", step,
                )
            committed = lay.committed_words(cpu)
            for slot in range(lay.num_buffers):
                count = words[committed + slot] & ((1 << 32) - 1)
                if count > lay.buffer_words:
                    return Violation(
                        "committed-overflow",
                        f"cpu {cpu} slot {slot} committed count {count} "
                        f"exceeds buffer_words {lay.buffer_words}", step,
                    )
        return None

    def final_checks(self, killed: List[int]) -> Optional[Violation]:
        try:
            drained = self.drained_view()
            self._check_live_drain_trust()
            self._check_drain_covers_ring(drained)
            if self.collector.stats.dropped:
                raise InvariantViolation(
                    "collector-dropped-in-wrap-free-run",
                    f"collector reported {self.collector.stats.dropped} "
                    f"dropped buffers but the run is wrap-free",
                )
            if killed:
                self._final_with_kills_shm(drained, killed)
            else:
                self._final_clean_shm(drained)
        except InvariantViolation as exc:
            return Violation(exc.invariant, exc.detail)
        return None

    def _check_live_drain_trust(self) -> None:
        """Mid-schedule drained records obey the reader trust gate.

        These copies were taken while writers were still running, so an
        uncovered buffer (committed < fill) is legitimately torn — but a
        *covered* one must decode clean with genuine events, because
        covered-at-copy-time is exactly the signal write-out trusts.
        """
        last_k: Dict[int, int] = {}
        for rec in sorted(self.live_drained, key=lambda r: (r.cpu, r.seq)):
            if rec.committed != rec.fill_words:
                continue
            scan = scan_buffer(rec.words, rec.fill_words, recover=False)
            if scan.garbles:
                off, detail = scan.garbles[0]
                raise InvariantViolation(
                    "reader-garble-in-covered-buffer",
                    f"drained cpu {rec.cpu} seq {rec.seq} committed=="
                    f"{rec.fill_words} but scan garbled at +{off}: {detail}",
                )
            self._check_test_events(scan, rec.seq, last_k, "collector")

    def _check_drain_covers_ring(self, drained: List[BufferRecord]) -> None:
        """Every buffer holding reserved words must reach the drain."""
        have = {(r.cpu, r.seq) for r in drained}
        for rec in self.ring_view():
            if (rec.cpu, rec.seq) not in have:
                raise InvariantViolation(
                    "lost-buffer-at-flush",
                    f"cpu {rec.cpu} buffer seq {rec.seq} holds "
                    f"{rec.fill_words} reserved words but the collector "
                    f"never drained it",
                )

    def _final_clean_shm(self, drained: List[BufferRecord]) -> None:
        batched = self._decode(drained, strict=False)
        scalar = reference_decode(drained, include_fillers=True)
        self._compare_paths_all(batched, scalar)
        strict = self._decode(drained, strict=True)
        for trace, mode in ((batched, "recover"), (strict, "strict")):
            bad = [a for a in trace.anomalies if a.kind != "missing-anchor"]
            if bad:
                a = bad[0]
                raise InvariantViolation(
                    "clean-decode-anomaly",
                    f"clean shm run decoded ({mode}) with anomaly "
                    f"{a.kind} in cpu {a.cpu} seq {a.seq} at +{a.offset}: "
                    f"{a.detail}",
                )
        got: Dict[int, List[List[int]]] = {
            w: [] for w in range(len(self.payloads))
        }
        for cpu in range(self.config.shm_cpus):
            times: List[int] = []
            for ev in batched.cpu_batch(cpu).events():
                if ev.time is not None:
                    times.append(ev.time)
                if ev.major != Major.TEST:
                    continue
                w = ev.minor - 1
                if w not in got:
                    raise InvariantViolation(
                        "fabricated-event",
                        f"decoded TEST event for unknown writer {ev.minor}",
                    )
                got[w].append([int(x) for x in ev.data])
            for a, b in zip(times, times[1:]):
                if b <= a:
                    raise InvariantViolation(
                        "timestamp-order",
                        f"cpu {cpu} timestamps not strictly increasing "
                        f"in the drained trace: {a} then {b}",
                    )
        for w, issued in enumerate(self.payloads):
            if w in self.silent:
                issued = []
            if got[w] != issued:
                raise InvariantViolation(
                    "lost-or-reordered-events",
                    f"writer {w} decoded {got[w]} from the drained "
                    f"trace, issued {issued}",
                )
        for rec in drained:
            if rec.partial and rec.committed != rec.fill_words:
                raise InvariantViolation(
                    "partial-commit-mismatch",
                    f"quiesced partial cpu {rec.cpu} seq {rec.seq}: "
                    f"committed {rec.committed} != fill {rec.fill_words}",
                )

    def _final_with_kills_shm(self, drained: List[BufferRecord],
                              killed: List[int]) -> None:
        trace = self._decode(drained, strict=False)
        ncpus = self.config.shm_cpus
        torn_by_cpu: Dict[int, Set[int]] = {c: set() for c in range(ncpus)}
        allowed_by_cpu: Dict[int, Set[int]] = {c: set()
                                               for c in range(ncpus)}
        killed_cpus = set()
        for tid in killed:
            cpu = tid % ncpus
            killed_cpus.add(cpu)
            torn_by_cpu[cpu] |= self.probes[cpu].torn_seqs(tid)
            allowed_by_cpu[cpu] |= self.probes[cpu].booked.get(tid, set())
        for cpu in range(ncpus):
            allowed_by_cpu[cpu] |= torn_by_cpu[cpu]
        flagged = {(a.cpu, a.seq) for a in trace.anomalies}
        by_key = {(rec.cpu, rec.seq): rec for rec in drained}
        # 1. Every torn buffer must be flagged in the drained trace.
        for cpu in range(ncpus):
            for seq in sorted(torn_by_cpu[cpu]):
                rec = by_key.get((cpu, seq))
                if rec is None:
                    continue  # absence is lost-buffer-at-flush's job
                if rec.partial:
                    if (rec.committed == rec.fill_words
                            and (cpu, seq) not in flagged):
                        raise InvariantViolation(
                            "torn-not-flagged",
                            f"kill tore partial cpu {cpu} seq {seq} but "
                            f"committed {rec.committed} covers fill "
                            f"{rec.fill_words} and no anomaly was reported",
                        )
                elif (cpu, seq) not in flagged:
                    raise InvariantViolation(
                        "torn-not-flagged",
                        f"kill tore cpu {cpu} buffer seq {seq} but the "
                        f"drained trace decoded it without anomaly",
                    )
        # 2. No false anomalies outside the kill's footprint.
        for a in trace.anomalies:
            if a.kind == "missing-anchor":
                continue
            if a.seq not in allowed_by_cpu.get(a.cpu, set()):
                raise InvariantViolation(
                    "false-anomaly-under-kill",
                    f"anomaly {a.kind} in cpu {a.cpu} seq {a.seq} at "
                    f"+{a.offset} ({a.detail}) but kills only touched "
                    f"{ {c: sorted(s) for c, s in allowed_by_cpu.items()} }",
                )
        # 3. Covered drained buffers stay trustworthy after a kill.
        last_k: Dict[int, int] = {}
        for rec in drained:
            if rec.committed != rec.fill_words:
                continue
            scan = scan_buffer(rec.words, rec.fill_words, recover=False)
            if scan.garbles:
                off, detail = scan.garbles[0]
                raise InvariantViolation(
                    "reader-garble-in-covered-buffer",
                    f"drained cpu {rec.cpu} seq {rec.seq} committed=="
                    f"{rec.fill_words} but scan garbled at +{off}: {detail}",
                )
            self._check_test_events(scan, rec.seq, last_k, "final")

    def _compare_paths_all(self, batched, scalar) -> None:
        def flat(events_of):
            return [
                (e.cpu, e.seq, e.offset, e.ts32, e.major, e.minor,
                 [int(x) for x in e.data], e.time)
                for cpu in range(self.config.shm_cpus)
                for e in events_of(cpu)
            ]

        if flat(lambda cpu: batched.cpu_batch(cpu).events()) \
                != flat(scalar.events):
            raise InvariantViolation(
                "scalar-batch-divergence",
                "the reference walk and the batched decoder disagree on "
                "the drained trace",
            )


__all__ = [
    "MissedFlushCollector",
    "SHM_MUTANTS",
    "ShmCheckedSystem",
    "ShmMutantSpec",
    "UnlockedClaimOwner",
]
