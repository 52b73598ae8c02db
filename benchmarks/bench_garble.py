"""§3.1: garbled-buffer probability and detection.

Paper claims: (a) a writer interrupted between reserve and log can
garble a buffer; (b) for scientific applications running one thread per
processor such errors never occur; (c) the per-buffer committed counts
and header validity checks detect the damage; (d) "We have run entire
benchmark suites without incurring any errors."

Reproduction: failure injection on the real lockless logger — writers
that reserve and then die (or stall a full ring lap) at a configurable
rate — versus clean runs of the scientific and SDET workloads; measure
detection rate and residual stream usability.
"""

import random


from repro.core.buffers import TraceControl
from repro.core.logger import TraceLogger
from repro.core.majors import Major
from repro.core.mask import TraceMask
from repro.core.registry import default_registry
from repro.core.stream import TraceReader
from repro.core.timestamps import ManualClock
from result_tables import write_result
from repro.workloads import run_scientific, run_sdet


def injected_run(kill_rate: float, n_events: int = 4_000, seed: int = 3):
    """Log ``n_events``; a ``kill_rate`` fraction of writers die after
    reserving (never write, never commit).  Returns the decoded trace
    and the number of injected kills."""
    control = TraceControl(buffer_words=128, num_buffers=8, zero_ahead=True)
    mask = TraceMask()
    mask.enable_all()
    clock = ManualClock()
    logger = TraceLogger(control, mask, clock, registry=default_registry())
    logger.start()
    rng = random.Random(seed)
    kills = 0
    for i in range(n_events):
        clock.advance(7)
        if rng.random() < kill_rate:
            logger._reserve(2)  # reserve ... and the process is killed
            kills += 1
        else:
            logger.log1(Major.TEST, 1, i)
    reader = TraceReader(registry=default_registry())
    trace = reader.decode_records(control.flush())
    return trace, kills


def test_garble_injection_detected(benchmark):
    rows = ["garble injection on the lockless logger "
            "(4000 events, 128-word buffers)",
            f"{'kill rate':>10} {'kills':>6} {'anomalies':>10} "
            f"{'buffers flagged':>16} {'events recovered':>17}"]
    for rate in (0.0, 0.001, 0.01, 0.05):
        trace, kills = injected_run(rate)
        flagged = {(a.cpu, a.seq) for a in trace.anomalies}
        recovered = len([e for e in trace.events(0)
                         if e.major == Major.TEST])
        rows.append(f"{rate:>10} {kills:>6} {len(trace.anomalies):>10} "
                    f"{len(flagged):>16} {recovered:>17}")
        if rate == 0.0:
            assert not trace.anomalies, "clean run must verify clean"
        if kills:
            assert trace.anomalies, "injected damage must be detected"
            assert recovered > 0, "the rest of the stream must survive"
    write_result("garble_injection", "\n".join(rows))
    benchmark(lambda: injected_run(0.01, n_events=1_000))


def test_scientific_workload_never_garbles(benchmark):
    """One thread per CPU: the paper's 'such errors will not occur'."""
    kernel, facility, _ = run_scientific(ncpus=4, phases=4,
                                         phase_cycles=500_000)
    trace = facility.decode()
    assert not trace.anomalies
    write_result(
        "garble_scientific",
        f"scientific workload (1 thread/CPU): "
        f"{len(trace.all_events())} events, {len(trace.anomalies)} anomalies\n"
        "paper: for such applications garbling errors will not occur",
    )
    benchmark(lambda: facility.decode())


def test_benchmark_suite_clean(benchmark):
    """'We have run entire benchmark suites without incurring any
    errors' — the SDET suite decodes clean."""
    kernel, facility, _ = run_sdet(4, scripts_per_cpu=2,
                                   commands_per_script=4)
    trace = facility.decode()
    assert not trace.anomalies
    write_result(
        "garble_sdet",
        f"SDET run: {len(trace.all_events())} events, "
        f"{len(trace.anomalies)} anomalies",
    )
    benchmark(lambda: facility.decode())


def test_random_garbage_rarely_parses(benchmark):
    """'It is unlikely that random data will have the correct format of
    a trace event header' — quantify the false-acceptance rate of the
    validity heuristics on uniformly random buffers."""
    from repro.core.buffers import BufferRecord
    import numpy as np

    rng = np.random.default_rng(7)
    # Strict mode: stop at the first garble, so "events accepted" counts
    # how far random data masquerades as a stream before detection.
    reader = TraceReader(registry=default_registry(), strict=True,
                         include_fillers=True)
    n_buffers = 200
    bw = 128
    accepted_events = 0
    flagged = 0
    for k in range(n_buffers):
        words = rng.integers(0, 2**64, size=bw, dtype=np.uint64)
        rec = BufferRecord(cpu=0, seq=k, words=words, committed=bw,
                           fill_words=bw)
        trace = reader.decode_one(rec)
        accepted_events += len(trace.events(0))
        flagged += bool(trace.anomalies)
    avg = accepted_events / n_buffers
    write_result(
        "garble_random_data",
        f"{n_buffers} random 128-word buffers: {flagged} flagged as "
        f"garbled,\naverage {avg:.2f} plausible events accepted per "
        "buffer before detection\n"
        "paper: with high probability errors are detected because random\n"
        "data rarely forms a valid header sequence",
    )
    assert flagged / n_buffers > 0.95
    assert avg < 8
    benchmark(lambda: reader.decode_one(
        BufferRecord(cpu=0, seq=0,
                     words=rng.integers(0, 2**64, size=bw, dtype=np.uint64),
                     committed=bw, fill_words=bw),
    ).events(0))


def test_recovery_salvage_rate(benchmark):
    """How much of a damaged trace does in-buffer resynchronization save?

    For each fault kind the injector can produce, compare events decoded
    in strict (stop-at-first-garble, the paper's minimal recovery) mode
    against the default resynchronizing decoder.
    """
    from repro.core.faults import RECORD_KINDS, FaultInjector
    from repro.workloads import run_multiprog

    _, facility, _ = run_multiprog(ncpus=2, jobs_per_cpu=3, seed=11)
    records = facility.flush()
    reg = default_registry()
    baseline = len(TraceReader(registry=reg).decode_records(
        records).all_events())
    rows = [f"recovery salvage on injected damage ({baseline} clean events)",
            f"{'fault kind':>16} {'strict events':>14} "
            f"{'recovered events':>17} {'salvaged':>9}"]
    for kind in RECORD_KINDS:
        damaged, _report = FaultInjector(11).inject_records(records, kind)
        n_strict = len(TraceReader(registry=reg, strict=True)
                       .decode_records(damaged).all_events())
        n_loose = len(TraceReader(registry=reg)
                      .decode_records(damaged).all_events())
        assert n_loose >= n_strict
        rows.append(f"{kind:>16} {n_strict:>14} {n_loose:>17} "
                    f"{n_loose - n_strict:>9}")
    write_result("garble_recovery_salvage", "\n".join(rows))
    damaged, _ = FaultInjector(11).inject_records(records, "torn-event")
    reader = TraceReader(registry=reg)
    benchmark(lambda: reader.decode_records(damaged))
