"""Self-tuning (trace-fed hot swap) tests — §5 future work."""

from collections import Counter

import pytest

from repro.core.facility import TraceFacility
from repro.core.majors import LockMinor, Major
from repro.ksim.autotune import AllocatorAutotuner
from repro.ksim.kernel import Kernel, KernelConfig
from repro.workloads.contention import alloc_storm


def run_storm(autotune: bool, iterations=80, ncpus=4):
    cfg = KernelConfig(ncpus=ncpus, global_alloc_fraction=0.9, seed=5)
    kernel = Kernel(cfg)
    facility = TraceFacility(ncpus=ncpus, clock=kernel.clock,
                             buffer_words=2048, num_buffers=8)
    facility.enable_all()
    kernel.facility = facility
    tuner = AllocatorAutotuner(kernel, check_period=300_000,
                               contention_threshold=10)
    if autotune:
        tuner.arm()
    for w in range(ncpus * 2):
        kernel.spawn_process(
            alloc_storm(iterations, 8_192, 3_000), f"churn{w}",
            cpu=w % ncpus,
        )
    assert kernel.run_until_quiescent()
    return kernel, facility, tuner


def test_autotuner_swaps_under_pressure():
    kernel, facility, tuner = run_storm(autotune=True)
    assert tuner.swapped
    assert len(tuner.actions) == 1
    action = tuner.actions[0]
    assert "per-CPU pools" in action.action
    assert action.contentions_seen >= 10
    assert "AllocRegionManager" in action.lock_name


def test_contention_counts_match_the_event_walk(monkeypatch):
    """Every check counts CONTEND_START per lock from event columns; the
    counts equal a walk over the decoded event objects of the same
    snapshot, so the tuner decides what the walk would have decided."""
    counted = []
    recent_contention = AllocatorAutotuner._recent_contention

    def checked(self):
        facility = self.kernel.facility
        walk = Counter(
            e.data[0]
            for e in facility.decode(facility.snapshot()).all_events()
            if e.major == Major.LOCK and e.minor == LockMinor.CONTEND_START
            and e.data)
        deltas = recent_contention(self)
        assert self._last_counts == walk
        counted.append(sum(walk.values()))
        return deltas

    monkeypatch.setattr(AllocatorAutotuner, "_recent_contention", checked)
    _kernel, _facility, tuner = run_storm(autotune=True)
    assert tuner.swapped
    assert counted and counted[-1] >= tuner.contention_threshold


def test_swap_improves_the_workload():
    k_off, _, _ = run_storm(autotune=False)
    k_on, _, tuner = run_storm(autotune=True)
    assert tuner.swapped
    assert k_on.engine.now < k_off.engine.now, (
        "self-tuning must speed the run up"
    )


def test_contention_rate_drops_after_swap():
    kernel, facility, tuner = run_storm(autotune=True)
    swap_time = tuner.actions[0].at_cycle
    trace = facility.decode()
    starts = trace.filter(name="TRC_LOCK_CONTEND_START")
    before = [e for e in starts if e.time <= swap_time]
    after = [e for e in starts if e.time > swap_time]
    span_before = max(1, swap_time)
    span_after = max(1, kernel.engine.now - swap_time)
    rate_before = len(before) / span_before
    rate_after = len(after) / span_after
    assert rate_after < rate_before * 0.5


def test_tuning_action_logged_into_the_trace():
    kernel, facility, tuner = run_storm(autotune=True)
    trace = facility.decode()
    marks = [e for e in trace.filter(name="TRC_USER_APP_MARK")
             if "autotune" in e.render()]
    assert marks, "the swap must leave an audit event in the stream"
    assert marks[0].time == pytest.approx(tuner.actions[0].at_cycle,
                                          abs=10_000)


def test_quiet_system_never_swaps():
    cfg = KernelConfig(ncpus=2, global_alloc_fraction=0.02, seed=5)
    kernel = Kernel(cfg)
    facility = TraceFacility(ncpus=2, clock=kernel.clock,
                             buffer_words=2048, num_buffers=8)
    facility.enable_all()
    kernel.facility = facility
    tuner = AllocatorAutotuner(kernel, check_period=200_000,
                               contention_threshold=10)
    tuner.arm()
    kernel.spawn_process(alloc_storm(30, 4_096, 10_000), "calm", cpu=0)
    assert kernel.run_until_quiescent()
    assert not tuner.swapped
    assert tuner.describe() == "autotuner: no action taken"
