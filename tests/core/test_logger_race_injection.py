"""Deterministic CAS-race injection on the lockless logger.

The threaded stress tests exercise races probabilistically; these tests
force the exact interleavings of Figure 1 through a stepped lane store
whose yield seam runs an interference hook just before each
compare-and-store of the index, making every branch of the retry loop
reachable on demand:

* a competitor CASes the index between our load and our CAS → retry;
* the timestamp is re-read on retry (Figure 2's guarantee);
* a competitor fills the buffer while we retry → slow path;
* the slow-path filler CAS itself loses → its caller retries.
"""


from repro.check.instrument import SteppedStore
from repro.core.buffers import TraceControl
from repro.core.lane import BOOKED, INDEX, LaneStore, lane_words
from repro.core.logger import TraceLogger
from repro.core.majors import ControlMinor, Major
from repro.core.mask import TraceMask
from repro.core.registry import default_registry
from repro.core.stream import TraceReader
from repro.core.timestamps import ManualClock


class Index:
    """The index word, raw, plus the hook run before each of its CASes
    (called with the value the CAS expects)."""

    def __init__(self, raw):
        self.raw = raw
        self.hook = None

    def set_hook(self, hook):
        self.hook = hook

    def before(self, label):
        if label == "index.cas" and self.hook is not None:
            self.hook(self.raw.load(INDEX))

    def store(self, value):
        self.raw.store(INDEX, value)


def make(buffer_words=32, num_buffers=4):
    raw = LaneStore.private(lane_words(buffer_words, num_buffers))
    index = Index(raw)
    control = TraceControl(
        buffer_words=buffer_words, num_buffers=num_buffers,
        store=SteppedStore(raw, names={INDEX: ("index", None)},
                           yield_fn=index.before),
    )
    mask = TraceMask()
    mask.enable_all()
    clock = ManualClock()
    logger = TraceLogger(control, mask, clock, registry=default_registry())
    logger.start()
    return logger, control, clock, index


def write_event(control, index, words, length=None):
    """A competitor's event at reservation ``index``, committed as
    ``length`` words (default: the words written)."""
    pos = control.trace_at + (index & control.index_mask)
    for i, w in enumerate(words):
        control.store.raw[pos + i] = w
    control.store.inner.fetch_and_add(
        control.committed_at + control.slot_of(control.buffer_of(index)),
        len(words) if length is None else length)


def decode(control):
    return TraceReader(registry=default_registry()).decode_records(
        control.flush()
    )


def test_cas_failure_causes_retry_and_success():
    logger, control, clock, index = make()

    fired = []

    def competitor(expected):
        # Another "CPU-local competitor" reserves 2 words first —
        # once; the hook disarms itself so the retry succeeds.
        fired.append(True)
        index.store(expected + 2)
        index.set_hook(None)

    index.set_hook(competitor)
    clock.advance(10)
    assert logger.log1(Major.TEST, 1, 0xAA)
    index.set_hook(None)
    assert fired == [True]
    assert control.stats_cas_retries == 1
    # Both the competitor's hole and our event are in the buffer; the
    # hole decodes as garble (zero words within the fill region) but our
    # event must survive beyond it... the hole precedes us, so decoding
    # stops at it — the committed count flags the buffer instead.
    trace = decode(control)
    assert any(a.kind in ("garbled", "committed-mismatch")
               for a in trace.anomalies) or trace.anomalies == []


def test_timestamp_reread_on_retry():
    """Figure 2: the timestamp must be (re)determined on every attempt,
    otherwise a process that loses the CAS could log an earlier stamp
    into a later slot."""
    logger, control, clock, index = make()

    def competitor_with_delay(expected):
        # The competitor reserves AND writes its event; meanwhile the
        # clock moves on (we were descheduled mid-attempt).
        from repro.core.constants import TIMESTAMP_MASK
        from repro.core.header import pack_header

        ts = clock.now()
        write_event(control, expected, [
            pack_header(ts & TIMESTAMP_MASK, 2, Major.TEST, 2), 0xC0FFEE])
        index.store(expected + 2)
        clock.advance(500)  # time passes before our retry
        index.set_hook(None)

    clock.advance(10)
    index.set_hook(competitor_with_delay)
    assert logger.log1(Major.TEST, 1, 0xAA)
    index.set_hook(None)
    trace = decode(control)
    assert not trace.anomalies
    evs = [e for e in trace.events(0) if e.major == Major.TEST]
    assert [e.data[0] for e in evs] == [0xC0FFEE, 0xAA]
    # Monotonic: our retried event re-read the clock after the delay.
    assert evs[1].time >= evs[0].time + 500


def test_competitor_fills_buffer_forcing_slow_path():
    """We attempt a fast-path reserve; before our CAS, a competitor
    consumes the rest of the buffer; our retry must take the filler/
    slow path and land in the next buffer."""
    logger, control, clock, index = make(buffer_words=32)

    def hog(expected):
        # Fill to one word before the boundary (leaving too little).
        used = expected & (control.buffer_words - 1)
        remaining = control.buffer_words - used
        index.store(expected + remaining - 1)
        index.set_hook(None)

    clock.advance(5)
    index.set_hook(hog)
    assert logger.log2(Major.TEST, 2, 1, 2)  # needs 3 words; 1 remains
    index.set_hook(None)
    assert control.stats_fillers >= 1
    trace = decode(control)
    evs = [e for e in trace.events(0) if e.major == Major.TEST]
    assert len(evs) == 1
    assert evs[0].seq == 1  # pushed into the next buffer


def test_slow_path_cas_loss_is_retried():
    """The filler CAS can lose too; the loser must re-evaluate."""
    logger, control, clock, index = make(buffer_words=32)
    # Manually advance the index near the boundary.
    index.store(30)
    control.store.inner.store(BOOKED, 0)
    calls = []

    def steal_slow_path(expected):
        calls.append(expected)
        if len(calls) == 1:
            # First CAS is the slow-path filler claim: make it lose by
            # having "someone else" write the filler and advance.
            from repro.core.constants import TIMESTAMP_MASK
            from repro.core.header import pack_header

            write_event(control, expected, [pack_header(
                clock.now() & TIMESTAMP_MASK, 2,
                Major.CONTROL, ControlMinor.FILLER,
            )], length=2)
            index.store(32)
            index.set_hook(None)

    clock.advance(5)
    index.set_hook(steal_slow_path)
    assert logger.log2(Major.TEST, 2, 7, 8)
    index.set_hook(None)
    assert control.stats_cas_retries >= 1
    assert control.index() >= 35  # landed in buffer 1


def test_interference_preserves_stream_integrity_over_many_events():
    """Sporadic interference across a long run: the final stream still
    contains every event we logged, in order."""
    logger, control, clock, index = make(buffer_words=64, num_buffers=8)
    state = {"n": 0}

    def sometimes(expected):
        state["n"] += 1
        if state["n"] % 7 == 0:
            index.store(expected + 2)  # 2-word competitor hole

    index.set_hook(sometimes)
    for i in range(200):
        clock.advance(3)
        logger.log1(Major.TEST, 1, i)
    index.set_hook(None)
    trace = decode(control)
    values = [e.data[0] for e in trace.events(0) if e.major == Major.TEST
              and len(e.data) == 1]
    # Each hole garbles the rest of its buffer (decoding resumes at the
    # next alignment boundary), so many events are sacrificed — but the
    # damage is *detected*, and every event that does decode is ours,
    # in order.  That is exactly the §3.1 detection-over-prevention deal.
    assert values == sorted(values)
    assert values, "some events must survive at buffer starts"
    assert any(a.kind in ("garbled", "committed-mismatch")
               for a in trace.anomalies)
