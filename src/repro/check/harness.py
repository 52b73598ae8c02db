"""Build a checked logging system and run one controlled schedule.

The harness wires the *real* :class:`~repro.core.logger.TraceLogger`
(or a deliberately broken mutant) to lanes whose word stores are
step-instrumented (:class:`~repro.check.instrument.SteppedStore`: index,
booked-sequence word, committed counts and trace memory), then drives N
writer tasks (and optionally a concurrent reader task) under the
cooperative scheduler, one shared-memory operation at a time.

There is one checked system, :class:`CheckedSystem`, over a list of
lanes.  A private system has one lane in process memory.  With
``shm=True`` the lanes are the CPUs of a *real*
:class:`~repro.shm.region.ShmTraceRegion` segment, each writer holds its
own attach of it (its own mapping, exactly as a separate process would),
and a real :class:`~repro.shm.collector.ShmCollector`'s drained output —
not the ring — is what the final invariants judge.  The writers are
still cooperative tasks in one process (determinism requires it), but
every load, CAS and trace-word store goes through the same segment words,
stores and locks separate OS processes use; the only cross-process
effect this cannot exercise is a torn 8-byte store, which the platform
(and the paper's hardware) rules out anyway.

Invariants are checked at three moments, on every lane:

* **after every step** — the reservation index and booked sequence only
  move forward, committed counts never exceed the buffer size, the run
  stays wrap-free, and no trace word is ever written twice (checked
  inside the stepped store's :class:`~repro.check.instrument.TraceWatch`);
* **at reader observations** — a buffer whose committed count covers its
  fill must decode garble-free, and every decoded TEST event in such a
  buffer must be one the harness actually issued, in per-writer order
  (the committed count is the validity gate of §3.1: the checker
  verifies it gates *correctly*);
* **at quiescence** — the judged view (the production reader's
  :func:`~repro.core.buffers.read_lane` copy of each lane, or the
  collector's drain) of a clean run must decode identically on the
  production decoder and the reference walk (:mod:`repro.check.oracle`)
  and with no anomalies in strict and recovering modes, with every
  issued payload present exactly once in per-writer order and per-CPU
  timestamps strictly increasing; a run with killed writers must flag
  every buffer the kill tore (committed-mismatch or garble) and must
  flag *only* those buffers.

Only the shm seam adds checks of its own:

* **drain-covers-ring** — every buffer that holds reserved words at
  quiescence (by the independent
  :func:`~repro.check.oracle.reference_ring` walk) must appear in the
  drained trace (``lost-buffer-at-flush``: a collector that misses the
  flush silently loses the final partial buffers);
* **collector-dropped-in-wrap-free-run** — the ring cannot lap the
  collector in a wrap-free run, so any reported drop is a cursor bug;
* mid-schedule drained records obey the same trust gate as the reader;
* lane ownership (:mod:`repro.shm.lanes`): each simulated process has
  its own pid and liveness — the writers bound to one CPU are threads
  of that CPU's process, which claims the lane at setup, and ``rivals``
  are single-writer processes that claim CPU 0's lane inside the
  schedule; a process is alive while any of its tasks still runs.
  After every step no lane is held by two live processes
  (**lane-owned-twice**) and a lane's owner generation only steps by
  one (**lane-generation**).

Configurations are wrap-free by construction: the checker sizes runs so
the ring never recycles a slot, which is what makes "no word is written
twice" and "reserved words map to ``pos // buffer_words``" exact.  A
run that would wrap raises :class:`ConfigError` instead of exploring
nonsense.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.check.coop import CoopRuntime, FAILED, KILLED, READY
from repro.check.instrument import (
    DoubleWriteError,
    Probe,
    StepClock,
    SteppedStore,
    TraceWatch,
    lane_names,
)
from repro.check.mutants import (
    ATTACH_GEOMETRY,
    COLLECTOR,
    LANE_OWNER,
    LOGGER,
    MUTANTS,
    make_logger,
    seam_class,
)
from repro.check.oracle import reference_decode, reference_ring
from repro.core.buffers import BufferRecord, LaneAt, TraceControl, read_lane
from repro.core.columnar import decode_records_columnar
from repro.core.constants import COMMIT_COUNT_MASK
from repro.core.lane import FIXED_WORDS, LaneStore, lane_words
from repro.core.majors import Major
from repro.core.mask import TraceMask
from repro.core.stream import scan_buffer
from repro.shm.lanes import GENERATION_SHIFT, LaneOwner, ShmLaneBusy
from repro.shm.region import ShmLayout, ShmTraceRegion

#: A scheduling choice: ``("run", tid)`` or ``("kill", tid)``.
Action = Tuple[str, int]


class ConfigError(ValueError):
    """The configuration cannot be checked (e.g. the run would wrap)."""


class ReplayDivergence(RuntimeError):
    """A replayed schedule no longer matches the execution."""


class InvariantViolation(AssertionError):
    """A protocol invariant failed; ``invariant`` is its stable id."""

    def __init__(self, invariant: str, detail: str) -> None:
        super().__init__(detail)
        self.invariant = invariant
        self.detail = detail


@dataclass
class CheckConfig:
    """One checkable scenario (all fields JSON-serializable)."""

    writers: int = 2
    events: int = 2
    data_words: int = 1
    buffer_words: int = 8
    num_buffers: int = 8
    kills: int = 0
    reader: bool = False
    reader_steps: int = 3
    mutant: Optional[str] = None
    #: Check the shared-memory seam: the lanes are the CPUs of one real
    #: :class:`~repro.shm.region.ShmTraceRegion`, writers become
    #: independent attaches of it (writer ``w`` binds CPU
    #: ``w % shm_cpus``) and the drained trace of a
    #: :class:`~repro.shm.collector.ShmCollector` is what the final
    #: invariants judge.
    shm: bool = False
    shm_cpus: int = 1
    #: In shm mode, >0 spawns a collector task that polls mid-schedule
    #: this many times (each poll is a scheduling point).
    collector_steps: int = 0
    #: In shm mode: extra single-writer processes, each with its own
    #: pid, that bind CPU 0's lane from inside the schedule.  A rival
    #: logs only if its claim wins (the lane's owner died); otherwise it
    #: is refused.  Rivals are never killed.
    rivals: int = 0
    #: Rivals reuse CPU 0's owner pid: each is born only once that
    #: process has died (a pid is free only then).
    pid_reuse: bool = False

    def validate(self) -> None:
        if self.writers < 1:
            raise ConfigError("need at least one writer")
        if self.events < 1:
            raise ConfigError("need at least one event per writer")
        if self.data_words < 1:
            raise ConfigError(
                "data_words must be >= 1: payload identity is how the "
                "checker recognizes its own events"
            )
        if self.shm_cpus < 1:
            raise ConfigError("shm_cpus must be >= 1")
        if self.collector_steps < 0:
            raise ConfigError("collector_steps must be >= 0")
        if self.rivals < 0:
            raise ConfigError("rivals must be >= 0")
        if not self.shm and (self.shm_cpus > 1 or self.collector_steps
                             or self.rivals):
            raise ConfigError(
                "shm_cpus/collector_steps/rivals are only meaningful with "
                "shm=True"
            )
        if self.pid_reuse and not self.rivals:
            raise ConfigError("pid_reuse needs rivals >= 1")
        if self.mutant is not None:
            spec = MUTANTS.get(self.mutant)
            if spec is None:
                raise ConfigError(f"unknown mutant {self.mutant!r}; "
                                  f"known: {sorted(MUTANTS)}")
            if spec.seam != LOGGER and not self.shm:
                raise ConfigError(
                    f"mutant {self.mutant} replaces the shm {spec.seam}; "
                    f"it needs shm=True"
                )
        event_words = self.data_words + 1
        overhead = 4 + self.data_words  # anchor + start + worst filler
        if self.buffer_words <= overhead:
            raise ConfigError(
                f"buffer_words={self.buffer_words} leaves no room past "
                f"per-buffer overhead of {overhead}"
            )
        # Wrap-free check per CPU: in shm mode writers are spread over
        # shm_cpus rings round-robin, so each ring carries only its share
        # (plus the rivals, on CPU 0).
        ncpus = self.shm_cpus if self.shm else 1
        per_cpu = max(
            len(range(c, self.writers, ncpus)) + (self.rivals if c == 0 else 0)
            for c in range(ncpus)
        )
        payload = 4 + per_cpu * self.events * event_words
        useful = self.buffer_words - overhead
        need = -(-payload // useful) + 1  # ceil, +1 slack buffer
        if need > self.num_buffers:
            raise ConfigError(
                f"config may wrap the ring: ~{need} buffers needed, "
                f"{self.num_buffers} available (the checker requires "
                f"wrap-free runs)"
            )

    def payloads(self) -> List[List[List[int]]]:
        """Issued data words: ``payloads[writer][event] -> [words]``
        (rival ``r`` is writer ``writers + r``)."""
        return [
            [
                [((w + 1) << 20) | ((k + 1) << 8) | (j + 1)
                 for j in range(self.data_words)]
                for k in range(self.events)
            ]
            for w in range(self.writers + self.rivals)
        ]


@dataclass
class Violation:
    """One invariant failure, locatable in the schedule."""

    invariant: str
    detail: str
    step: Optional[int] = None  # None: found at quiescence


@dataclass
class Point:
    """The scheduler's view at one choice, plus what it chose."""

    step: int
    enabled: List[int]
    prev: Optional[int]
    preemptions: int
    kills: int
    labels: Dict[int, str]
    choice: Action


@dataclass
class ScheduleOutcome:
    """Everything one executed schedule produced."""

    config: CheckConfig
    points: List[Point] = field(default_factory=list)
    violation: Optional[Violation] = None
    preemptions: int = 0
    kills: int = 0
    #: How many leading choices were forced (scripted); the rest came
    #: from the strategy or the default policy.
    forced: int = 0

    @property
    def choices(self) -> List[Action]:
        return [p.choice for p in self.points]

    @property
    def steps(self) -> int:
        return len(self.points)


def default_action(enabled: Sequence[int], prev: Optional[int]) -> Action:
    """The non-preempting policy: keep running the current task."""
    if prev is not None and prev in enabled:
        return ("run", prev)
    return ("run", min(enabled))


def _feasible(action: Action, enabled: Sequence[int], writers: int) -> bool:
    kind, tid = action
    if tid not in enabled:
        return False
    if kind == "kill":
        return tid < writers  # only writers are killable
    return kind == "run"


@dataclass
class CheckedLane:
    """One CPU's lane under check.

    ``ctl`` is the checker's own (setup-time) control over the lane and
    ``probe`` is fed by every stepped store of it; ``words`` and ``at``
    are the lane's raw words and offsets, read with no scheduling point.
    """

    cpu: int
    ctl: TraceControl
    probe: Probe
    words: object
    at: LaneAt
    index_prev: int = 0
    booked_prev: int = 0

    @classmethod
    def of(cls, ctl: TraceControl, probe: Probe) -> "CheckedLane":
        return cls(ctl.cpu, ctl, probe, ctl.store.raw, ctl.lane_at)


@dataclass
class _SimProcess:
    """One simulated OS process: its pid, its lanes, its tasks."""

    pid: int
    owner: LaneOwner
    tids: List[int] = field(default_factory=list)
    #: False until a pid-reusing rival finds the pid free.
    born: bool = True


class CheckedSystem:
    """The logger under check over a list of lanes, plus its tasks,
    ready to run one schedule.

    Private (``shm=False``): one lane over :meth:`LaneStore.private`,
    which every writer logs into.  Shm: one lane per CPU of a real
    :class:`~repro.shm.region.ShmTraceRegion`; writer ``w`` attaches the
    segment independently and binds CPU ``w % shm_cpus`` as a thread of
    that CPU's simulated process.  The invariants are the same code for
    both, iterating over :attr:`lanes`.
    """

    def __init__(self, config: CheckConfig) -> None:
        config.validate()
        self.config = config
        self.runtime = CoopRuntime()
        self.clock = StepClock(self.runtime)
        self.mask = TraceMask()
        self.mask.enable_all()
        self.payloads = config.payloads()
        self.lanes: List[CheckedLane] = []
        #: Writers that log nothing by design: refused or unborn rivals.
        self.silent: Set[int] = set()
        self.region: Optional[ShmTraceRegion] = None
        self._attached: List[ShmTraceRegion] = []
        try:
            if config.shm:
                self._build_shm()
            else:
                self._build_private()
            if config.reader:
                self.runtime.spawn("reader", self._reader_fn())
            if config.collector_steps > 0:
                self.runtime.spawn("collector", self._collector_fn())
        except BaseException:
            self.close()
            raise

    # -- wiring ----------------------------------------------------------
    def _build_private(self) -> None:
        config = self.config
        bw, nb = config.buffer_words, config.num_buffers
        probe = Probe(self.runtime, bw)
        trace_at = FIXED_WORDS + 2 * nb
        store = SteppedStore(
            LaneStore.private(lane_words(bw, nb)),
            names=lane_names(0, nb),
            yield_fn=self.runtime.yield_point,
            observer=probe.observe,
            watch=TraceWatch(self.runtime, probe, trace_at,
                             trace_at + bw * nb, label_at=trace_at),
        )
        ctl = TraceControl(cpu=0, buffer_words=bw, num_buffers=nb,
                           mode="flight", store=store)
        self.lanes.append(CheckedLane.of(ctl, probe))
        # Sequential setup: anchor events for buffer 0 (yields no-op on
        # the main thread, so this is deterministic straight-line code).
        make_logger(None, ctl, self.mask, self.clock).start()
        for w in range(config.writers):
            self._spawn_writer(
                w, make_logger(config.mutant, ctl, self.mask, self.clock))

    def _build_shm(self) -> None:
        config = self.config
        ncpus = config.shm_cpus
        #: Shared double-write ownership, keyed by absolute segment word.
        self.owner: Dict[int, Optional[int]] = {}
        self._generation_prev = [0] * ncpus
        self.processes: List[_SimProcess] = []
        self.region = ShmTraceRegion.create(
            ncpus=ncpus,
            buffer_words=config.buffer_words,
            num_buffers=config.num_buffers,
            start_anchors=False,
        )
        for cpu in range(ncpus):
            probe = Probe(self.runtime, config.buffer_words)
            ctl = self._shm_control(self.region, cpu, probe)
            self.lanes.append(CheckedLane.of(ctl, probe))
            make_logger(None, ctl, self.mask, self.clock).start()

        by_cpu: Dict[int, _SimProcess] = {}
        for w in range(config.writers):
            cpu = w % ncpus
            if cpu not in by_cpu:
                by_cpu[cpu] = self._process(100 + cpu)
            proc = by_cpu[cpu]
            wregion = self._attach(proc)
            wregion.claim(cpu)
            # The last writer's attach is the one whose geometry a
            # mutant may replace (mapping another CPU's trace memory).
            geometry = (seam_class(config.mutant, ATTACH_GEOMETRY)
                        if w == config.writers - 1 else ShmLayout)
            ctl = self._shm_control(wregion, cpu, self.lanes[cpu].probe,
                                    geometry)
            task = self._spawn_writer(
                w, make_logger(config.mutant, ctl, self.mask, self.clock))
            proc.tids.append(task.tid)
        for r in range(config.rivals):
            w = config.writers + r
            proc = self._process(by_cpu[0].pid if config.pid_reuse
                                 else 200 + r)
            proc.born = not config.pid_reuse
            task = self.runtime.spawn(
                f"r{r}", self._rival_fn(proc, self._attach(proc), w))
            proc.tids.append(task.tid)

        cregion = ShmTraceRegion.attach(self.region.name)
        self._attached.append(cregion)
        self.collector = seam_class(config.mutant, COLLECTOR)(cregion, lag=1)
        self.live_drained: List[BufferRecord] = []

    def _process(self, pid: int) -> _SimProcess:
        owner = seam_class(self.config.mutant, LANE_OWNER)
        proc = _SimProcess(pid, owner(pid, alive=self._pid_alive))
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

    def _shm_control(self, region: ShmTraceRegion, cpu: int, probe: Probe,
                     geometry: type = ShmLayout) -> TraceControl:
        """``cpu``'s control through ``region``, its trace memory where
        ``geometry`` puts it."""
        lay = region.layout
        trace_at = geometry(lay.ncpus, lay.buffer_words,
                            lay.num_buffers).trace_words(cpu)
        store = SteppedStore(
            region.lane_store(cpu),
            names=lane_names(lay.cpu_base(cpu), lay.num_buffers,
                             f"cpu{cpu}."),
            yield_fn=self.runtime.yield_point,
            observer=probe.observe,
            # Keyed by absolute segment word and shared by every attach,
            # so overlapping reservations are caught across attaches —
            # or through an attach whose geometry maps it into another
            # CPU's region.
            watch=TraceWatch(self.runtime, probe, trace_at,
                             trace_at + lay.total_words_per_cpu,
                             label_at=0, owner=self.owner),
        )
        ctl = region.control(cpu, store=store)
        ctl.trace_at = trace_at
        return ctl

    def close(self) -> None:
        """Release the shm segment and its attaches (idempotent; a
        private system holds nothing)."""
        for region in self._attached:
            region.close()
        if self.region is not None:
            self.region.close()
            self.region.unlink()

    # -- tasks -----------------------------------------------------------
    def _log_payloads(self, logger, w: int) -> None:
        for data in self.payloads[w]:
            logger.log_words(Major.TEST, w + 1, data)

    def _spawn_writer(self, w: int, logger):
        return self.runtime.spawn(
            f"w{w}", lambda: self._log_payloads(logger, w))

    def _rival_fn(self, proc: _SimProcess, region: ShmTraceRegion, w: int):
        """A process that binds CPU 0's lane mid-schedule, logs if its
        claim wins, then exits (closing its attach releases the lane)."""
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
            ctl = self._shm_control(region, 0, self.lanes[0].probe)
            logger = make_logger(None, ctl, self.mask, self.clock)
            self._log_payloads(logger, w)
            region.close()
        return fn

    def _reader_fn(self):
        def fn() -> None:
            for _ in range(self.config.reader_steps):
                self.runtime.yield_point("reader.view")
                self._check_covered(self.reference_view(), "reader")
        return fn

    def _collector_fn(self):
        def fn() -> None:
            for _ in range(self.config.collector_steps):
                self.runtime.yield_point("collector.poll")
                self.live_drained.extend(self.collector.poll())
        return fn

    # -- views -----------------------------------------------------------
    def lane_view(self) -> List[BufferRecord]:
        """Every buffer touched so far, lane by lane, as the production
        reader (:func:`~repro.core.buffers.read_lane`) copies it
        (wrap-free, so sequence == slot order)."""
        bw, nb = self.config.buffer_words, self.config.num_buffers
        out: List[BufferRecord] = []
        for lane in self.lanes:
            cur_seq = lane.words[lane.at.index] // bw
            out.extend(read_lane(lane.words, lane.at, bw, nb, lane.cpu,
                                 range(cur_seq + 1)))
        return out

    def reference_view(self) -> List[BufferRecord]:
        """The same buffers by the independent walk
        (:func:`~repro.check.oracle.reference_ring`): what the reader
        task trusts and what the collector's drain is judged against."""
        bw, nb = self.config.buffer_words, self.config.num_buffers
        return [rec for lane in self.lanes
                for rec in reference_ring(lane.words, lane.at, bw, nb,
                                          lane.cpu)]

    # -- invariants ------------------------------------------------------
    def after_step(self, step: int) -> Optional[Violation]:
        if self.config.shm:
            violation = self._check_owners(step)
            if violation is not None:
                return violation
        bw = self.config.buffer_words
        total = bw * self.config.num_buffers
        for lane in self.lanes:
            words, at, cpu = lane.words, lane.at, lane.cpu
            index = words[at.index]
            if index > total:
                raise ConfigError(
                    f"run wrapped cpu {cpu}'s ring at step {step} "
                    f"(index {index} > {total}); enlarge num_buffers"
                )
            if index < lane.index_prev:
                return Violation(
                    "index-regression",
                    f"cpu {cpu} reservation index moved backwards "
                    f"{lane.index_prev} -> {index}", step,
                )
            lane.index_prev = index
            booked = words[at.booked]
            if booked < lane.booked_prev:
                return Violation(
                    "booked-regression",
                    f"cpu {cpu} booked_seq moved backwards "
                    f"{lane.booked_prev} -> {booked}", step,
                )
            lane.booked_prev = booked
            if booked > index // bw:
                return Violation(
                    "booked-ahead-of-index",
                    f"cpu {cpu} booked_seq {booked} beyond current "
                    f"buffer {index // bw}", step,
                )
            for slot in range(self.config.num_buffers):
                count = words[at.committed + slot] & COMMIT_COUNT_MASK
                if count > bw:
                    return Violation(
                        "committed-overflow",
                        f"cpu {cpu} slot {slot} committed count {count} "
                        f"exceeds buffer_words {bw}", step,
                    )
        return None

    def _check_owners(self, step: int) -> Optional[Violation]:
        """No lane held by two live processes; owner generations step by
        one per claim."""
        seg = self.region.seglock.key
        for cpu in range(len(self.lanes)):
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

    def _check_covered(self, records: List[BufferRecord], who: str) -> None:
        """Buffers whose committed count covers their fill must be
        trustworthy.

        That is the §3.1 contract this verifies: a covered buffer must
        scan garble-free, and its TEST events must be genuine issued
        payloads in per-writer order.  Uncovered buffers are skipped —
        a reader must not trust them.
        """
        last_k: Dict[int, int] = {}
        for rec in records:
            if rec.committed != rec.fill_words:
                continue
            scan = scan_buffer(rec.words, rec.fill_words, recover=False)
            if scan.garbles:
                off, detail = scan.garbles[0]
                raise InvariantViolation(
                    "reader-garble-in-covered-buffer",
                    f"cpu {rec.cpu} buffer seq {rec.seq} committed=="
                    f"{rec.fill_words} but scan garbled at +{off}: {detail}",
                )
            self._check_test_events(scan, rec.seq, last_k, who)

    def _check_test_events(
        self,
        scan,
        seq: int,
        last_k: Dict[int, int],
        who: str,
    ) -> None:
        """Every TEST event must be an issued payload, in per-writer order."""
        cols = scan.cols
        for off in scan.offsets:
            if cols.major[off] != Major.TEST:
                continue
            w = int(cols.minor[off]) - 1
            data = cols.arr[off + 1:off + cols.length[off]].tolist()
            if not (0 <= w < len(self.payloads)):
                raise InvariantViolation(
                    f"{who}-fabricated-event",
                    f"TEST event for unknown writer {w + 1} in seq {seq}",
                )
            issued = self.payloads[w]
            try:
                k = issued.index(data)
            except ValueError:
                raise InvariantViolation(
                    f"{who}-fabricated-event",
                    f"TEST event {data} in seq {seq} was never issued "
                    f"by writer {w}",
                ) from None
            if last_k.get(w, -1) >= k:
                raise InvariantViolation(
                    f"{who}-event-order",
                    f"writer {w} event {k} decoded at seq {seq} after "
                    f"event {last_k[w]}: per-writer order broken",
                )
            last_k[w] = k

    def final_checks(self, killed: List[int]) -> Optional[Violation]:
        try:
            if self.config.shm:
                # The collector's total output: live polls + finalize.
                view = sorted(self.live_drained + self.collector.finalize(),
                              key=lambda r: (r.cpu, r.seq))
                self._check_collector(view)
            else:
                view = self.lane_view()
            if killed:
                self._final_with_kills(view, killed)
            else:
                self._final_clean(view)
        except InvariantViolation as exc:
            return Violation(exc.invariant, exc.detail)
        return None

    def _check_collector(self, drained: List[BufferRecord]) -> None:
        """The shm collector seam: its mid-schedule copies obey the trust
        gate, its drain holds every buffer with reserved words, and it
        drops nothing in a wrap-free run."""
        # Copies taken while writers ran: an uncovered buffer is
        # legitimately torn, but a covered one is what write-out trusts.
        self._check_covered(
            sorted(self.live_drained, key=lambda r: (r.cpu, r.seq)),
            "collector")
        have = {(r.cpu, r.seq) for r in drained}
        for rec in self.reference_view():
            if (rec.cpu, rec.seq) not in have:
                raise InvariantViolation(
                    "lost-buffer-at-flush",
                    f"cpu {rec.cpu} buffer seq {rec.seq} holds "
                    f"{rec.fill_words} reserved words but the collector "
                    f"never drained it",
                )
        if self.collector.stats.dropped:
            raise InvariantViolation(
                "collector-dropped-in-wrap-free-run",
                f"collector reported {self.collector.stats.dropped} "
                f"dropped buffers but the run is wrap-free",
            )

    def _decode(self, view: List[BufferRecord], strict: bool):
        return decode_records_columnar(
            view, include_fillers=True, check_committed=True, strict=strict)

    def _final_clean(self, view: List[BufferRecord]) -> None:
        batched = self._decode(view, strict=False)
        scalar = reference_decode(view, include_fillers=True)
        self._compare_paths(batched, scalar)
        strict = self._decode(view, strict=True)
        for trace, mode in ((batched, "recover"), (strict, "strict")):
            bad = [a for a in trace.anomalies if a.kind != "missing-anchor"]
            if bad:
                a = bad[0]
                raise InvariantViolation(
                    "clean-decode-anomaly",
                    f"clean run decoded ({mode}) with anomaly {a.kind} in "
                    f"cpu {a.cpu} seq {a.seq} at +{a.offset}: {a.detail}",
                )
        # Every issued payload, exactly once, in per-writer order; per-CPU
        # timestamps strictly increasing.
        got: Dict[int, List[List[int]]] = {
            w: [] for w in range(len(self.payloads))
        }
        times: Dict[int, List[int]] = {}
        for lane in self.lanes:
            stamps = times[lane.cpu] = []
            for ev in batched.cpu_batch(lane.cpu).events():
                if ev.time is not None:
                    stamps.append(ev.time)
                if ev.major != Major.TEST:
                    continue
                w = ev.minor - 1
                if w not in got:
                    raise InvariantViolation(
                        "fabricated-event",
                        f"decoded TEST event for unknown writer {ev.minor}",
                    )
                got[w].append([int(x) for x in ev.data])
        for w, issued in enumerate(self.payloads):
            if w in self.silent:
                issued = []
            if got[w] != issued:
                raise InvariantViolation(
                    "lost-or-reordered-events",
                    f"writer {w} decoded {got[w]}, issued {issued}",
                )
        for cpu, stamps in times.items():
            for a, b in zip(stamps, stamps[1:]):
                if b <= a:
                    raise InvariantViolation(
                        "timestamp-order",
                        f"cpu {cpu} timestamps not strictly increasing: "
                        f"{a} then {b} (every clock read is a distinct "
                        f"tick, so reservation order must show through)",
                    )
        # The partial buffer is outside the decoder's committed check.
        for rec in view:
            if rec.partial and rec.committed != rec.fill_words:
                raise InvariantViolation(
                    "partial-commit-mismatch",
                    f"quiesced partial buffer cpu {rec.cpu} seq {rec.seq}: "
                    f"committed {rec.committed} != fill {rec.fill_words}",
                )

    def _final_with_kills(self, view: List[BufferRecord],
                          killed: List[int]) -> None:
        trace = self._decode(view, strict=False)
        # Buffers as (cpu, seq); writer w logs on lane w % len(lanes).
        torn: Set[Tuple[int, int]] = set()
        allowed: Set[Tuple[int, int]] = set()
        for tid in killed:
            lane = self.lanes[tid % len(self.lanes)]
            torn |= {(lane.cpu, s) for s in lane.probe.torn_seqs(tid)}
            allowed |= {(lane.cpu, s)
                        for s in lane.probe.booked.get(tid, ())}
        allowed |= torn
        flagged = {(a.cpu, a.seq) for a in trace.anomalies}
        by_key = {(rec.cpu, rec.seq): rec for rec in view}
        # 1. Every torn buffer must be flagged (§3.1: the heuristics and
        #    committed counts must expose killed writers' holes).
        for key in sorted(torn):
            rec = by_key.get(key)
            if rec is None:
                continue  # never materialized: nothing to mistrust
            cpu, seq = key
            if rec.partial:
                # The decoder's committed check skips partials; the
                # reader-side signal is committed < fill.
                if rec.committed == rec.fill_words and key not in flagged:
                    raise InvariantViolation(
                        "torn-not-flagged",
                        f"killed writer tore partial buffer cpu {cpu} seq "
                        f"{seq} but committed count {rec.committed} covers "
                        f"fill {rec.fill_words} and no anomaly was reported",
                    )
            elif key not in flagged:
                raise InvariantViolation(
                    "torn-not-flagged",
                    f"killed writer tore buffer cpu {cpu} seq {seq} but "
                    f"decode reported no anomaly for it",
                )
        # 2. No false garbles: every non-anchor anomaly must be in a
        #    buffer the kill actually touched.
        for a in trace.anomalies:
            if a.kind == "missing-anchor":
                continue
            if (a.cpu, a.seq) not in allowed:
                raise InvariantViolation(
                    "false-anomaly-under-kill",
                    f"anomaly {a.kind} in cpu {a.cpu} seq {a.seq} at "
                    f"+{a.offset} ({a.detail}) but the kill only touched "
                    f"{sorted(allowed)}",
                )
        # 3. Covered buffers stay trustworthy even after a kill.
        self._check_covered(view, "final")

    def _compare_paths(self, batched, scalar) -> None:
        cpus = [lane.cpu for lane in self.lanes]

        def flat(events):
            return [
                (e.cpu, e.seq, e.offset, e.ts32, e.major, e.minor,
                 [int(x) for x in e.data], e.time)
                for e in events
            ]

        if flat(e for c in cpus for e in batched.cpu_batch(c).events()) \
                != flat(e for c in cpus for e in scalar.events(c)):
            raise InvariantViolation(
                "scalar-batch-divergence",
                "the reference walk and the batched decoder disagree on "
                "this schedule",
            )


def run_schedule(
    config: CheckConfig,
    prefix: Sequence[Action] = (),
    strategy=None,
    on_infeasible: str = "default",
) -> ScheduleOutcome:
    """Execute one schedule: forced ``prefix`` choices first, then the
    ``strategy`` (or the default non-preempting policy).

    ``on_infeasible`` controls what happens when a prefix choice no
    longer applies (its task finished or died): ``"default"`` substitutes
    the default policy — what shrinking and tolerant replay want —
    while ``"error"`` raises :class:`ReplayDivergence`.
    """
    system = CheckedSystem(config)
    runtime = system.runtime
    outcome = ScheduleOutcome(config=config)
    try:
        return _drive_schedule(system, runtime, outcome, config, prefix,
                               strategy, on_infeasible)
    finally:
        system.close()


def _drive_schedule(
    system: CheckedSystem,
    runtime: CoopRuntime,
    outcome: ScheduleOutcome,
    config: CheckConfig,
    prefix: Sequence[Action],
    strategy,
    on_infeasible: str,
) -> ScheduleOutcome:
    prev: Optional[int] = None
    try:
        while True:
            enabled_tasks = runtime.enabled()
            if not enabled_tasks:
                break
            enabled = [t.tid for t in enabled_tasks]
            step = len(outcome.points)
            action: Optional[Action] = None
            if step < len(prefix):
                action = tuple(prefix[step])  # type: ignore[assignment]
                if not _feasible(action, enabled, config.writers):
                    if on_infeasible == "error":
                        raise ReplayDivergence(
                            f"step {step}: scripted choice {action} not "
                            f"applicable (enabled: {enabled})"
                        )
                    action = None
                else:
                    outcome.forced += 1
            if action is None and strategy is not None:
                action = strategy(step, enabled, prev,
                                  outcome.preemptions, outcome.kills)
                if action is not None and not _feasible(
                        action, enabled, config.writers):
                    action = None
            if action is None:
                action = default_action(enabled, prev)
            labels = {t.tid: (t.pending or "start") for t in enabled_tasks}
            point = Point(step, enabled, prev, outcome.preemptions,
                          outcome.kills, labels, action)
            outcome.points.append(point)
            kind, tid = action
            task = runtime.tasks[tid]
            if kind == "kill":
                outcome.kills += 1
                runtime.kill(task)
            else:
                if prev is not None and tid != prev and prev in enabled:
                    outcome.preemptions += 1
                runtime.step(task)
                prev = tid
                if task.state == FAILED:
                    err = task.error
                    if isinstance(err, InvariantViolation):
                        outcome.violation = Violation(
                            err.invariant, err.detail, step)
                    elif isinstance(err, DoubleWriteError):
                        outcome.violation = Violation(
                            "double-write", str(err), step)
                    else:
                        raise err  # a harness bug, not a finding
            if outcome.violation is None:
                outcome.violation = system.after_step(step)
            if outcome.violation is not None:
                return outcome
    finally:
        runtime.shutdown()
    if on_infeasible == "error" and len(prefix) > len(outcome.points):
        raise ReplayDivergence(
            f"script has {len(prefix)} choices but the run ended after "
            f"{len(outcome.points)} steps"
        )
    killed = [t.tid for t in runtime.tasks if t.state == KILLED]
    outcome.violation = system.final_checks(killed)
    return outcome


__all__ = [
    "Action",
    "CheckConfig",
    "CheckedLane",
    "CheckedSystem",
    "ConfigError",
    "InvariantViolation",
    "Point",
    "ReplayDivergence",
    "ScheduleOutcome",
    "Violation",
    "default_action",
    "run_schedule",
]
