"""Unit tests for the model checker's execution machinery."""

import pytest

from repro.check.coop import CoopRuntime, DONE, KILLED, EngineError
from repro.check.harness import (
    CheckConfig,
    ConfigError,
    run_schedule,
)
from repro.check.instrument import (
    DoubleWriteError,
    Probe,
    SteppedStore,
    TraceWatch,
)
from repro.core.lane import LaneStore


def stepped(nwords, **kw):
    """A stepped store over a private one; word 0 is named ``idx`` and
    words 1.. are the elements of ``committed``."""
    names = {0: ("idx", None)}
    names.update({1 + k: (f"committed[{k}]", k) for k in range(nwords - 1)})
    return SteppedStore(LaneStore.private(nwords), names=names, **kw)


class TestSteppedAtomics:
    """Each operation of the stepped lane store is a scheduling point."""

    def test_word_semantics(self):
        store = stepped(1)
        w = store.word(0)
        w.store(5)
        assert w.load() == 5
        w.store(9)
        assert w.peek() == 9
        assert w.compare_and_store(9, 10)
        assert not w.compare_and_store(9, 11)
        assert w.fetch_and_add(2) == 10
        assert w.load() == 12
        assert store.mem[0] == 12  # indexing is the load the logger does

    def test_word_yields_before_effect(self):
        labels, seen_at_yield = [], []

        def yield_fn(label):
            labels.append(label)
            seen_at_yield.append(store.peek(0))

        store = stepped(1, yield_fn=yield_fn)
        store.mem[0]
        store.cas(0, 0, 1)
        store.store(0, 7)
        store.fetch_and_add(0, 1)
        store.mem[0] = 3
        assert labels == ["idx.load", "idx.cas", "idx.store", "idx.faa",
                          "idx.store"]
        assert seen_at_yield == [0, 0, 1, 7, 8]  # before each effect

    def test_word_observer_sees_outcome(self):
        seen = []
        store = stepped(1, observer=lambda *a: seen.append(a))
        store.cas(0, 0, 4)
        store.cas(0, 0, 5)
        store.mem[0]
        assert seen == [("idx", "cas", (0, 4), True),
                        ("idx", "cas", (0, 5), False),
                        ("idx", "load", (), 4)]

    def test_array_semantics(self):
        seen = []
        store = stepped(4, observer=lambda *a: seen.append(a))
        store.store(2, 42)
        assert store.load(2) == 42
        assert store.peek(1) == 0
        assert store.cas(2, 42, 43)
        assert store.fetch_and_add(2, 1) == 43
        assert store.raw.tolist() == [0, 0, 44, 0]
        assert len(store) == 4
        assert seen[0] == ("committed[1]", "store", (1, 0, 42), None)
        assert seen[2] == ("committed[1]", "cas", (1, 42, 43), True)


class TestCoopRuntime:
    def test_steps_are_deterministic(self):
        def trace_of():
            rt = CoopRuntime()
            log = []
            def worker(name):
                def fn():
                    for i in range(3):
                        rt.yield_point(f"{name}.{i}")
                        log.append((name, i))
                return fn
            a = rt.spawn("a", worker("a"))
            b = rt.spawn("b", worker("b"))
            # alternate strictly
            while rt.enabled():
                for t in (a, b):
                    if t.state == "ready":
                        rt.step(t)
            return log

        assert trace_of() == trace_of()

    def test_kill_skips_pending_operation(self):
        rt = CoopRuntime()
        executed = []
        def fn():
            rt.yield_point("op1")
            executed.append("op1")
            rt.yield_point("op2")
            executed.append("op2")
        t = rt.spawn("w", fn)
        rt.step(t)          # runs up to the op1 yield point
        rt.step(t)          # executes op1, parks at op2
        rt.kill(t)          # op2 must never execute
        assert t.state == KILLED
        assert executed == ["op1"]

    def test_completion_and_invalid_step(self):
        rt = CoopRuntime()
        t = rt.spawn("w", lambda: None)
        rt.step(t)
        assert t.state == DONE
        with pytest.raises(EngineError):
            rt.step(t)

    def test_yield_outside_task_is_noop(self):
        rt = CoopRuntime()
        rt.yield_point("setup")  # must not raise or block


def watched_trace(nwords=8):
    """A stepped store whose words are all watched trace memory."""
    rt = CoopRuntime()
    probe = Probe(rt, buffer_words=8)
    return SteppedStore(
        LaneStore.private(nwords), yield_fn=rt.yield_point,
        watch=TraceWatch(rt, probe, 0, nwords, label_at=0))


class TestInstrumentedArray:
    """The stepped store's watched trace memory."""

    def test_double_write_detected(self):
        store = watched_trace()
        store.mem[3] = 1
        with pytest.raises(DoubleWriteError):
            store.mem[3] = 2

    def test_slice_zero_resets_ownership(self):
        store = watched_trace()
        store.mem[2] = 7
        store.mem[0:4] = LaneStore.private(4).mem
        store.mem[2] = 8  # legal again after the zeroing
        assert store.mem[2] == 8


class TestConfigValidation:
    def test_rejects_wrapping_config(self):
        with pytest.raises(ConfigError):
            CheckConfig(writers=4, events=8, num_buffers=2).validate()

    def test_rejects_zero_payload(self):
        with pytest.raises(ConfigError):
            CheckConfig(data_words=0).validate()

    def test_runtime_wrap_guard(self):
        # Sneak past the static estimate with a config that wraps only
        # under an adversarial schedule shape: impossible here, so force
        # it by shrinking the ring after validation.
        cfg = CheckConfig(writers=2, events=2)
        cfg.num_buffers = 2  # 16 words total; the run needs ~20
        with pytest.raises(ConfigError, match="wrap"):
            run_schedule(cfg)

    def test_payloads_are_unique_and_nonzero(self):
        cfg = CheckConfig(writers=3, events=4, data_words=2)
        seen = set()
        for per_writer in cfg.payloads():
            for words in per_writer:
                assert all(w != 0 for w in words)
                key = tuple(words)
                assert key not in seen
                seen.add(key)


class TestRunSchedule:
    def test_default_schedule_is_clean_and_deterministic(self):
        cfg = CheckConfig(writers=2, events=2)
        a = run_schedule(cfg)
        b = run_schedule(cfg)
        assert a.violation is None
        assert a.choices == b.choices
        assert [p.labels for p in a.points] == [p.labels for p in b.points]

    def test_forced_prefix_is_respected(self):
        cfg = CheckConfig(writers=2, events=1)
        out = run_schedule(cfg, prefix=[("run", 1), ("run", 1), ("run", 0)])
        assert [p.choice for p in out.points[:3]] == [
            ("run", 1), ("run", 1), ("run", 0)]
        assert out.violation is None

    def test_kill_leaves_flagged_trace(self):
        # Kill writer 0 right before it writes its header: the torn
        # buffer must be flagged, which for the correct logger means
        # *no* violation is reported.
        cfg = CheckConfig(writers=2, events=1, kills=1)
        base = run_schedule(cfg)
        # find the first mem write of task 0 and kill there instead
        for i, point in enumerate(base.points):
            if point.labels.get(0, "").startswith("mem["):
                prefix = [p.choice for p in base.points[:i]] + [("kill", 0)]
                break
        else:
            pytest.fail("no mem write point found")
        out = run_schedule(cfg, prefix=prefix)
        assert out.violation is None, out.violation
        assert out.kills == 1

    def test_preemption_accounting(self):
        cfg = CheckConfig(writers=2, events=1)
        out = run_schedule(
            cfg, prefix=[("run", 0), ("run", 0), ("run", 1), ("run", 0)])
        # switching 0->1 while 0 is alive, then 1->0 while 1 is alive
        assert out.preemptions >= 2
