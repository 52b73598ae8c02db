#!/usr/bin/env python3
"""Figure 1, animated: two processes race to log into one buffer.

The paper's Figure 1 walks the lockless reservation through four steps:
step 0, the initial index; step 1, processes A and B both attempt to
atomically advance it by their (different) event lengths; step 2, the
winner (B) owns the space right after the old index; step 3, A's retry
lands immediately after B.  This example forces exactly that schedule
through a stepped lane store, whose yield seam runs a hook just before
each compare-and-store of the index, and prints the buffer state at
each step — then shows the §3.1 monotonic-timestamp
guarantee surviving the race.

Run:  python examples/lockless_race.py
"""

from repro.check.instrument import SteppedStore
from repro.core.buffers import TraceControl
from repro.core.lane import INDEX, LaneStore, lane_words
from repro.core.logger import TraceLogger
from repro.core.majors import Major
from repro.core.mask import TraceMask
from repro.core.registry import default_registry
from repro.core.stream import TraceReader
from repro.core.timestamps import ManualClock


def show(control, label):
    start = control.trace_at
    words = control.store.raw[start:start + 14].tolist()
    rendered = " ".join(f"{w:>5x}" if w else "    ." for w in words)
    print(f"{label:<34} index={control.index():>2}  [{rendered}]")


def main() -> None:
    hook = [None]
    cas = []  # outcome of every compare-and-store on the index

    def before(label: str) -> None:
        if label == "index.cas" and hook[0] is not None:
            hook[0]()

    store = SteppedStore(
        LaneStore.private(lane_words(32, 4)),
        names={INDEX: ("index", None)}, yield_fn=before,
        observer=lambda name, op, args, ok: (
            name == "index" and op == "cas" and cas.append(ok)))
    control = TraceControl(buffer_words=32, num_buffers=4, store=store)
    mask = TraceMask()
    mask.enable_all()
    clock = ManualClock()
    logger = TraceLogger(control, mask, clock, registry=default_registry())
    logger.start()
    base = control.index()
    print(f"step 0: buffer 0 holds its anchor events; index at {base}\n")
    show(control, "initial state")

    # Process A wants to log a 3-word event (header + 2 data words).
    # Between A's load of the index and its compare-and-store, process B
    # sneaks in and logs a 2-word event — Figure 1's winner.
    def process_b_wins() -> None:
        expected = control.index()
        print(f"\nstep 1: A read index={expected}, attempts CAS -> "
              f"{expected + 3}")
        print("        ...but B's CAS lands first (2-word event)")
        clock.advance(5)
        # B logs through the same logger machinery (hook disarmed so B's
        # own CAS succeeds cleanly).
        hook[0] = None
        logger.log1(Major.TEST, 1, 0xB)
        show(control, "step 2: B owns the old index")

    clock.advance(10)
    hook[0] = process_b_wins
    logger.log2(Major.TEST, 2, 0xA, 0xA)   # A retries internally and wins
    print(f"\nstep 3: A's retry reserved right after B "
          f"(index now {control.index()})")
    show(control, "final state")

    print(f"\nCAS attempts: {len(cas)}, "
          f"failures (retries): {cas.count(False)}")

    trace = TraceReader(registry=default_registry()).decode_records(
        control.flush()
    )
    print("\ndecoded stream (timestamps monotonic despite the race — the")
    print("retry re-read the clock, the Figure 2 guarantee):")
    for e in trace.events(0):
        if e.major == Major.TEST:
            print(f"  t={e.time:>3} {e.name} data={[hex(d) for d in e.data]}")
    times = [e.time for e in trace.events(0)]
    assert times == sorted(times)
    print("\nno anomalies:", not trace.anomalies)


if __name__ == "__main__":
    main()
