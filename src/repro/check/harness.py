"""Build a checked logging system and run one controlled schedule.

The harness wires the *real* :class:`~repro.core.logger.TraceLogger`
(or a deliberately broken mutant) to a :class:`TraceControl` whose lane
store is step-instrumented (:class:`~repro.check.instrument.SteppedStore`:
index, booked-sequence word, committed counts and trace memory), then
drives N writer tasks (and optionally a concurrent reader task) under
the cooperative scheduler, one shared-memory operation at a time.

Invariants are checked at three moments:

* **after every step** — the reservation index and booked sequence only
  move forward, committed counts never exceed the buffer size, the run
  stays wrap-free, and no trace word is ever written twice (checked
  inside the stepped store's :class:`~repro.check.instrument.TraceWatch`);
* **at reader observations** — a buffer whose committed count covers its
  fill must decode garble-free, and every decoded TEST event in such a
  buffer must be one the harness actually issued, in per-writer order
  (the committed count is the validity gate of §3.1: the checker
  verifies it gates *correctly*);
* **at quiescence** — a clean run must decode identically on the
  production decoder and the reference walk (:mod:`repro.check.oracle`)
  and with no anomalies in strict and recovering modes, with
  every issued payload present exactly once in per-writer order and
  per-CPU timestamps strictly increasing; a run with killed writers
  must flag every buffer the kill tore (committed-mismatch or garble)
  and must flag *only* those buffers.

Configurations are wrap-free by construction: the checker sizes runs so
the ring never recycles a slot, which is what makes "no word is written
twice" and "reserved words map to ``pos // buffer_words``" exact.  A
run that would wrap raises :class:`ConfigError` instead of exploring
nonsense.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.check.coop import CoopRuntime, FAILED, KILLED
from repro.check.instrument import (
    DoubleWriteError,
    Probe,
    StepClock,
    SteppedStore,
    TraceWatch,
    lane_names,
)
from repro.check.mutants import make_logger
from repro.core.buffers import BufferRecord, TraceControl, read_lane
from repro.core.lane import FIXED_WORDS, LaneStore, lane_words
from repro.core.majors import Major
from repro.core.mask import TraceMask
from repro.check.oracle import reference_decode
from repro.core.columnar import decode_records_columnar
from repro.core.stream import scan_buffer

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
    #: Check the shared-memory seam: writers become independent attaches
    #: of one real :class:`~repro.shm.region.ShmTraceRegion` (writer
    #: ``w`` binds CPU ``w % shm_cpus``) and the drained trace of a
    #: :class:`~repro.shm.collector.ShmCollector` is what the final
    #: invariants judge.  See :mod:`repro.check.shm`.
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


class CheckedSystem:
    """One instrumented logger + tasks, ready to run one schedule."""

    def __init__(self, config: CheckConfig) -> None:
        config.validate()
        self.config = config
        self.runtime = CoopRuntime()
        self.probe = Probe(self.runtime, config.buffer_words)
        bw, nb = config.buffer_words, config.num_buffers
        trace_at = FIXED_WORDS + 2 * nb
        self.store = SteppedStore(
            LaneStore.private(lane_words(bw, nb)),
            names=lane_names(0, nb),
            yield_fn=self.runtime.yield_point,
            observer=self.probe.observe,
            watch=TraceWatch(self.runtime, self.probe, trace_at,
                             trace_at + bw * nb, label_at=trace_at),
        )
        self.ctl = TraceControl(cpu=0, buffer_words=bw, num_buffers=nb,
                                mode="flight", store=self.store)

        self.clock = StepClock(self.runtime)
        self.mask = TraceMask()
        self.mask.enable_all()
        self.payloads = config.payloads()
        self._index_prev = 0
        self._booked_prev = 0

        # Sequential setup: anchor events for buffer 0 (yields no-op on
        # the main thread, so this is deterministic straight-line code).
        setup_logger = make_logger(None, self.ctl, self.mask, self.clock)
        setup_logger.start()

        for w in range(config.writers):
            self.runtime.spawn(f"w{w}", self._writer_fn(w))
        if config.reader:
            self.runtime.spawn("reader", self._reader_fn())

    def close(self) -> None:
        """Release external resources (the shm variant holds a segment)."""

    # -- tasks ---------------------------------------------------------
    def _writer_fn(self, w: int):
        logger = make_logger(
            self.config.mutant, self.ctl, self.mask, self.clock
        )
        events = self.payloads[w]

        def fn() -> None:
            for data in events:
                logger.log_words(Major.TEST, w + 1, data)
        return fn

    def _reader_fn(self):
        def fn() -> None:
            for _ in range(self.config.reader_steps):
                self.runtime.yield_point("reader.view")
                self._check_reader_view()
        return fn

    # -- views ---------------------------------------------------------
    def ring_view(self) -> List[BufferRecord]:
        """Records for every buffer touched so far, straight from the
        ring by the production reader (wrap-free, so sequence == slot
        order), read with no scheduling point."""
        ctl = self.ctl
        raw = self.store.raw
        cur_seq = ctl.buffer_of(raw[ctl.index_at])
        return list(read_lane(raw, ctl.lane_at, ctl.buffer_words,
                              ctl.num_buffers, ctl.cpu, range(cur_seq + 1)))

    # -- invariants ----------------------------------------------------
    def after_step(self, step: int) -> Optional[Violation]:
        ctl = self.ctl
        raw = self.store.raw
        index = raw[ctl.index_at]
        if index > ctl.total_words:
            raise ConfigError(
                f"run wrapped the ring at step {step} "
                f"(index {index} > {ctl.total_words}); enlarge num_buffers"
            )
        if index < self._index_prev:
            return Violation(
                "index-regression",
                f"reservation index moved backwards "
                f"{self._index_prev} -> {index}", step,
            )
        self._index_prev = index
        booked = raw[ctl.booked_at]
        if booked < self._booked_prev:
            return Violation(
                "booked-regression",
                f"booked_seq moved backwards "
                f"{self._booked_prev} -> {booked}", step,
            )
        self._booked_prev = booked
        if booked > ctl.buffer_of(index):
            return Violation(
                "booked-ahead-of-index",
                f"booked_seq {booked} beyond current buffer "
                f"{ctl.buffer_of(index)}", step,
            )
        for slot in range(ctl.num_buffers):
            count = raw[ctl.committed_at + slot] & ((1 << 32) - 1)
            if count > ctl.buffer_words:
                return Violation(
                    "committed-overflow",
                    f"slot {slot} committed count {count} exceeds "
                    f"buffer_words {ctl.buffer_words}", step,
                )
        return None

    def _check_reader_view(self) -> None:
        """Invariants a concurrent reader can check mid-run.

        Only buffers whose committed count covers their fill are
        trusted — that is the §3.1 contract this verifies: a covered
        buffer must scan garble-free, and its TEST events must be
        genuine issued payloads in per-writer order.
        """
        last_k: Dict[int, int] = {}
        for rec in self.ring_view():
            if rec.committed != rec.fill_words:
                continue  # uncovered: the reader must not trust it
            scan = scan_buffer(rec.words, rec.fill_words, recover=False)
            if scan.garbles:
                off, detail = scan.garbles[0]
                raise InvariantViolation(
                    "reader-garble-in-covered-buffer",
                    f"buffer seq {rec.seq} committed=={rec.fill_words} "
                    f"but scan garbled at +{off}: {detail}",
                )
            self._check_test_events(scan, rec.seq, last_k, "reader")

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
            if killed:
                self._final_with_kills(killed)
            else:
                self._final_clean()
        except InvariantViolation as exc:
            return Violation(exc.invariant, exc.detail)
        return None

    def _decode(self, view: List[BufferRecord], strict: bool):
        return decode_records_columnar(
            view, include_fillers=True, check_committed=True, strict=strict)

    def _final_clean(self) -> None:
        view = self.ring_view()
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
                    f"clean run decoded ({mode}) with anomaly "
                    f"{a.kind} in seq {a.seq} at +{a.offset}: {a.detail}",
                )
        # Every issued payload, exactly once, in per-writer order.
        got: Dict[int, List[List[int]]] = {w: [] for w in
                                           range(self.config.writers)}
        times: List[int] = []
        for ev in batched.cpu_batch(0).events():
            if ev.time is not None:
                times.append(ev.time)
            if ev.major != Major.TEST:
                continue
            w = ev.minor - 1
            if not (0 <= w < self.config.writers):
                raise InvariantViolation(
                    "fabricated-event",
                    f"decoded TEST event for unknown writer {ev.minor}",
                )
            got[w].append([int(x) for x in ev.data])
        for w, issued in enumerate(self.payloads):
            if got[w] != issued:
                raise InvariantViolation(
                    "lost-or-reordered-events",
                    f"writer {w} decoded {got[w]}, issued {issued}",
                )
        for a, b in zip(times, times[1:]):
            if b <= a:
                raise InvariantViolation(
                    "timestamp-order",
                    f"per-CPU timestamps not strictly increasing: "
                    f"{a} then {b} (every clock read is a distinct tick, "
                    f"so reservation order must show through)",
                )
        # The partial buffer is outside the decoder's committed check.
        for rec in view:
            if rec.partial and rec.committed != rec.fill_words:
                raise InvariantViolation(
                    "partial-commit-mismatch",
                    f"quiesced partial buffer seq {rec.seq}: committed "
                    f"{rec.committed} != fill {rec.fill_words}",
                )

    def _final_with_kills(self, killed: List[int]) -> None:
        view = self.ring_view()
        trace = self._decode(view, strict=False)
        torn: set = set()
        allowed: set = set()
        for tid in killed:
            torn |= self.probe.torn_seqs(tid)
            allowed |= self.probe.booked.get(tid, set())
        allowed |= torn
        flagged = {a.seq for a in trace.anomalies}
        by_seq = {rec.seq: rec for rec in view}
        # 1. Every torn buffer must be flagged (§3.1: the heuristics and
        #    committed counts must expose killed writers' holes).
        for seq in sorted(torn):
            rec = by_seq.get(seq)
            if rec is None:
                continue  # never materialized: nothing to mistrust
            if rec.partial:
                # The decoder's committed check skips partials; the
                # reader-side signal is committed < fill.
                if rec.committed == rec.fill_words and seq not in flagged:
                    raise InvariantViolation(
                        "torn-not-flagged",
                        f"killed writer tore partial buffer seq {seq} but "
                        f"committed count {rec.committed} covers fill "
                        f"{rec.fill_words} and no anomaly was reported",
                    )
            elif seq not in flagged:
                raise InvariantViolation(
                    "torn-not-flagged",
                    f"killed writer tore buffer seq {seq} but decode "
                    f"reported no anomaly for it",
                )
        # 2. No false garbles: every non-anchor anomaly must be in a
        #    buffer the kill actually touched.
        for a in trace.anomalies:
            if a.kind == "missing-anchor":
                continue
            if a.seq not in allowed:
                raise InvariantViolation(
                    "false-anomaly-under-kill",
                    f"anomaly {a.kind} in seq {a.seq} at +{a.offset} "
                    f"({a.detail}) but the kill only touched "
                    f"{sorted(allowed)}",
                )
        # 3. Covered buffers stay trustworthy even after a kill.
        last_k: Dict[int, int] = {}
        for rec in view:
            if rec.committed != rec.fill_words:
                continue
            scan = scan_buffer(rec.words, rec.fill_words, recover=False)
            if scan.garbles:
                off, detail = scan.garbles[0]
                raise InvariantViolation(
                    "reader-garble-in-covered-buffer",
                    f"buffer seq {rec.seq} committed=={rec.fill_words} "
                    f"but scan garbled at +{off}: {detail}",
                )
            self._check_test_events(scan, rec.seq, last_k, "final")

    def _compare_paths(self, batched, scalar) -> None:
        def flat(events):
            return [
                (e.cpu, e.seq, e.offset, e.ts32, e.major, e.minor,
                 [int(x) for x in e.data], e.time)
                for e in events
            ]

        if flat(batched.cpu_batch(0).events()) != flat(scalar.events(0)):
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
    if config.shm:
        # Imported here: repro.check.shm depends on this module.
        from repro.check.shm import ShmCheckedSystem
        system: CheckedSystem = ShmCheckedSystem(config)
    else:
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
