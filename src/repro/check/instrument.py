"""Stepped lane store, stepped clock, and the execution probe.

Three pieces the harness plugs into a :class:`TraceControl` under test:

* :class:`SteppedStore` — the lane word store with every shared-memory
  operation made a *scheduling point*: immediately before the effect of
  a load, store or compare-and-store of a control word (index, booked
  sequence, committed counts) takes place, it calls a yield function,
  giving the scheduler the chance to run a competitor first — exactly
  the interleavings a preemptible machine can produce around a
  ``lwarx``/``stwcx.`` pair.  An observer is called *after* each such
  operation with ``(name, op, args, result)``.  Each trace-word write is
  a scheduling point too, and the store remembers *who* wrote each word
  (:class:`TraceWatch`) so the checker can detect overlapping
  reservations directly: in a wrap-free run no trace word is ever
  legitimately written twice, so a rewrite means two writers were
  handed the same words.  Trace-word reads are not scheduling points — a
  64-bit aligned load is atomic on the modeled hardware, and serialized
  execution means a read always sees a word-consistent value.  ``peek``
  and ``raw`` read without a scheduling point, for invariant checks run
  from the scheduler itself (a checker observing memory is not a
  protocol participant).

* :class:`StepClock` — a per-read auto-incrementing clock whose ``now``
  is itself a scheduling point (the paper's argument about re-reading
  the timestamp inside the CAS retry loop is precisely about what can
  happen *between* the clock read and the reservation).  Distinct reads
  return distinct, strictly increasing ticks, so any timestamp
  regression in a decoded trace is a genuine ordering bug, never a tie.

* :class:`Probe` — passive bookkeeping fed by the stepped store's
  observer: which words each task reserved (successful index CAS or
  store transitions), which it wrote, and how many words it committed
  per buffer.  The kill/torn-event invariants are phrased over this
  record.

Only one task runs at a time under the checker's scheduler, so the
stepped store needs no locking of its own; it must not be shared
between truly concurrent threads.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Set, Tuple

from repro.check.coop import CoopRuntime
from repro.core.constants import WORD_MASK
from repro.core.lane import BOOKED, FIXED_WORDS, INDEX, LaneStore

#: Called before an operation's effect: ``yield_fn(label)``.
YieldFn = Callable[[str], None]
#: Called after an operation: ``observer(name, op, args_tuple, result)``.
Observer = Callable[[str, str, tuple, object], None]


class DoubleWriteError(AssertionError):
    """A trace word was written twice in a wrap-free run."""


@dataclass
class TraceWatch:
    """Who wrote which trace word, for the double-write check.

    Words ``start`` to ``stop`` of the store are the writer's trace
    memory.  A word is known by ``i - label_at`` in labels and in
    ``owner`` (shm attaches share one ``owner`` keyed by absolute
    segment word, so overlapping reservations are caught across
    attaches); the probe hears positions relative to ``start``.
    """

    runtime: CoopRuntime
    probe: "Probe"
    start: int
    stop: int
    label_at: int
    #: word key -> tid of the writing task (None = setup phase)
    owner: Dict[int, Optional[int]] = field(default_factory=dict)


class SteppedWords:
    """The ``mem`` of a :class:`SteppedStore`: indexing with scheduling
    points on the named control words and the watched trace words."""

    def __init__(self, raw, names: Dict[int, Tuple[str, Optional[int]]],
                 yield_fn: Optional[YieldFn], observer: Optional[Observer],
                 watch: Optional[TraceWatch]) -> None:
        self.raw = raw
        self.names = names
        self.yield_fn = yield_fn
        self.observer = observer
        self.watch = watch

    def __len__(self) -> int:
        return len(self.raw)

    def step(self, label: str) -> None:
        if self.yield_fn is not None:
            self.yield_fn(label)

    def observe(self, name: str, op: str, args: tuple, result) -> None:
        if self.observer is not None:
            self.observer(name, op, args, result)

    def name(self, i: int) -> Tuple[str, Optional[int]]:
        """``(name, element)`` of word ``i``: element is the array index
        of a committed count, None for a scalar word."""
        return self.names.get(i, (f"word[{i}]", None))

    def __getitem__(self, i):
        named = None if isinstance(i, slice) else self.names.get(i)
        if named is None:
            return self.raw[i]
        name, k = named
        self.step(f"{name}.load")
        value = self.raw[i]
        self.observe(name, "load", () if k is None else (k,), value)
        return value

    def __setitem__(self, i, value) -> None:
        watch = self.watch
        if isinstance(i, slice):
            # Zero-ahead: one bookkeeping operation that *resets*
            # ownership of the zeroed range rather than recording writes.
            self.step("mem.zero")
            if watch is not None:
                for pos in range(*i.indices(len(self.raw))):
                    watch.owner.pop(pos - watch.label_at, None)
            self.raw[i] = value
            return
        named = self.names.get(i)
        if named is not None:
            name, k = named
            self.step(f"{name}.store")
            old = self.raw[i]
            self.raw[i] = value
            self.observe(name, "store",
                         (old, value) if k is None else (k, old, value), None)
            return
        if watch is not None and watch.start <= i < watch.stop:
            key = i - watch.label_at
            self.step(f"mem[{key}]")
            task = watch.runtime.current
            tid = task.tid if task is not None else None
            if key in watch.owner:
                raise DoubleWriteError(
                    f"trace word {key} rewritten by task {tid} (first "
                    f"written by task {watch.owner[key]}): overlapping "
                    f"reservation"
                )
            watch.owner[key] = tid
            watch.probe.on_write(tid, i - watch.start)
        self.raw[i] = value


class SteppedStore(LaneStore):
    """A lane store whose every protocol operation is a scheduling point.

    Wraps ``inner`` (a private lane store, or a lane of a real shm
    segment): loads and stores go through :class:`SteppedWords`, and
    each compare-and-store yields, then runs ``inner``'s own — under
    ``inner``'s lock, so the shm seam's locking is exercised too.
    ``names`` maps word index to ``(name, element)``
    (see :func:`lane_names`).
    """

    __slots__ = ("inner",)

    def __init__(self, inner: LaneStore, *,
                 names: Optional[Dict[int, Tuple[str, Optional[int]]]] = None,
                 yield_fn: Optional[YieldFn] = None,
                 observer: Optional[Observer] = None,
                 watch: Optional[TraceWatch] = None) -> None:
        super().__init__(
            SteppedWords(inner.mem, names or {}, yield_fn, observer, watch),
            inner.lock)
        self.inner = inner

    @property
    def raw(self):
        """The words themselves, read with no scheduling point."""
        return self.inner.mem

    def peek(self, i: int) -> int:
        return self.inner.mem[i]

    def cas(self, i: int, old: int, new: int) -> bool:
        mem = self.mem
        name, k = mem.name(i)
        mem.step(f"{name}.cas")
        ok = self.inner.cas(i, old, new)
        mem.observe(name, "cas", (old, new) if k is None else (k, old, new),
                    ok)
        return ok

    def store(self, i: int, value: int) -> None:
        mem = self.mem
        name, k = mem.name(i)
        mem.step(f"{name}.store")
        old = self.inner.mem[i]
        value &= WORD_MASK
        self.inner.store(i, value)
        mem.observe(name, "store",
                    (old, value) if k is None else (k, old, value), None)

    def fetch_and_add(self, i: int, delta: int) -> int:
        mem = self.mem
        name, k = mem.name(i)
        mem.step(f"{name}.faa")
        old = self.inner.fetch_and_add(i, delta)
        new = (old + delta) & WORD_MASK
        mem.observe(name, "faa", (old, new) if k is None else (k, old, new),
                    old)
        return old


def lane_names(base: int, num_buffers: int, prefix: str = ""
               ) -> Dict[int, Tuple[str, Optional[int]]]:
    """Names of a lane's control words at word ``base``: ``index``,
    ``booked`` and ``committed[k]``, each after ``prefix``."""
    names: Dict[int, Tuple[str, Optional[int]]] = {
        base + INDEX: (f"{prefix}index", None),
        base + BOOKED: (f"{prefix}booked", None),
    }
    for k in range(num_buffers):
        names[base + FIXED_WORDS + k] = (f"{prefix}committed[{k}]", k)
    return names


class StepClock:
    """Manually-ticked clock; each read is a scheduling point.

    Auto-advances by one tick per read so that every observed timestamp
    is unique — ties can never mask an ordering violation.
    """

    cost_cycles = 10

    def __init__(self, runtime: CoopRuntime, start: int = 1) -> None:
        self.runtime = runtime
        self._now = start

    def now(self, cpu: int = 0) -> int:
        self.runtime.yield_point("clock.read")
        self._now += 1
        return self._now

    def peek(self) -> int:
        return self._now


class Probe:
    """Execution record used by the invariant engine.

    Fed by the stepped store: :meth:`observe` for the index, booked and
    committed words, :meth:`on_write` for the trace memory.  All keys are
    *word positions* or *buffer sequence numbers*; runs are wrap-free,
    so position ``p`` belongs to buffer ``p // buffer_words``.
    """

    def __init__(self, runtime: CoopRuntime, buffer_words: int) -> None:
        self.runtime = runtime
        self.buffer_words = buffer_words
        # tid -> list of reserved (start, end) word ranges
        self.reserved: Dict[Optional[int], List[Tuple[int, int]]] = {}
        # tid -> set of word positions written
        self.written: Dict[Optional[int], Set[int]] = {}
        # tid -> {seq: words committed}
        self.committed_by: Dict[Optional[int], Dict[int, int]] = {}
        # tid -> buffer seqs whose start-bookkeeping the task claimed
        self.booked: Dict[Optional[int], Set[int]] = {}
        self._index_prev = 0

    def _tid(self) -> Optional[int]:
        task = self.runtime.current
        return task.tid if task is not None else None

    # -- observer hooks -------------------------------------------------
    def observe(self, name: str, op: str, args: tuple, result) -> None:
        """The stepped store's observer: dispatch by word name."""
        if "committed" in name:
            self.on_committed(name, op, args, result)
        elif "booked" in name:
            self.on_booked(name, op, args, result)
        elif "index" in name:
            self.on_index(name, op, args, result)

    def on_write(self, tid: Optional[int], pos: int) -> None:
        self.written.setdefault(tid, set()).add(pos)

    def on_index(self, name: str, op: str, args: tuple, result) -> None:
        """Observer for the reservation index word."""
        tid = self._tid()
        if op == "cas" and result:
            old, new = args
            if new > old:
                self.reserved.setdefault(tid, []).append((old, new))
        elif op == "store":
            old, new = args
            if new > old:
                # A store-based bump (the non-atomic mutant) still counts
                # as that task's reservation for hole accounting.
                self.reserved.setdefault(tid, []).append((old, new))

    def on_booked(self, name: str, op: str, args: tuple, result) -> None:
        """Observer for the booked_seq word."""
        if op == "cas" and result:
            _, new = args
            self.booked.setdefault(self._tid(), set()).add(new)

    def on_committed(self, name: str, op: str, args: tuple, result) -> None:
        """Observer for the committed-count array (generation-tagged)."""
        from repro.core.constants import COMMIT_COUNT_MASK, COMMIT_SEQ_SHIFT

        if op == "cas" and result:
            _, old, new = args
            tag = new >> COMMIT_SEQ_SHIFT
            old_count = (
                old & COMMIT_COUNT_MASK
                if (old >> COMMIT_SEQ_SHIFT) == tag else 0
            )
            delta = (new & COMMIT_COUNT_MASK) - old_count
            seq = tag  # wrap-free runs: tag == seq
            per = self.committed_by.setdefault(self._tid(), {})
            per[seq] = per.get(seq, 0) + delta
        elif op == "store":
            # Raw store (the reset-on-book mutant): not attributed.
            pass

    # -- derived views --------------------------------------------------
    def reserved_words_by_seq(self, tid: Optional[int]) -> Dict[int, int]:
        out: Dict[int, int] = {}
        bw = self.buffer_words
        for start, end in self.reserved.get(tid, ()):
            for pos in range(start, end):
                out[pos // bw] = out.get(pos // bw, 0) + 1
        return out

    def written_words_by_seq(self, tid: Optional[int]) -> Dict[int, int]:
        out: Dict[int, int] = {}
        bw = self.buffer_words
        for pos in self.written.get(tid, ()):
            out[pos // bw] = out.get(pos // bw, 0) + 1
        return out

    def torn_seqs(self, tid: Optional[int]) -> Set[int]:
        """Buffers where ``tid`` left reserved words unwritten or
        written words uncommitted — the footprint a kill must expose."""
        reserved = self.reserved_words_by_seq(tid)
        written = self.written_words_by_seq(tid)
        committed = self.committed_by.get(tid, {})
        torn = set()
        for seq, n in reserved.items():
            if written.get(seq, 0) < n or committed.get(seq, 0) < n:
                torn.add(seq)
        return torn
