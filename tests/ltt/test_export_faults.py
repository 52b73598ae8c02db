"""``export-ltt`` over every trace-file fault: an export or one error line.

The LTT stream stores each event's time as a delta from the one before,
and a delta cannot be negative.  Damage the reader resynchronizes past
can leave a CPU whose next salvaged event is older than the last one;
that stream is refused with a ``ValueError`` naming the event, which the
CLI reports as its one ``repro-trace: error:`` line (exit 2) — never a
traceback, and never a silently reordered or shortened export.

Every fault :class:`~repro.core.faults.FaultInjector` applies to a trace
file is injected with each seed, and every CPU of the damaged file is
exported.  Seeds come from ``FAULT_FUZZ_SEEDS`` (comma-separated,
default ``0,1,2``) plus :data:`PINNED`, more seeds, most of them known
to step a CPU's time backwards on this fixture.  The fixture holds
several frames per CPU, so damage always has neighbours to
resynchronize into.
"""

import os

import pytest

from repro.cli import main
from repro.core.faults import FILE_KINDS, RECORD_KINDS
from repro.core.writer import save_records
from repro.ltt.export import read_ltt
from repro.workloads import run_contention

NCPUS = 4
#: header-bitflip 0, 2, 3, 7 and 10 and torn-event 0 and 2 each leave one
#: CPU whose time steps backwards past the damage; 6 and 9 place the
#: damage elsewhere.
PINNED = (3, 6, 7, 9, 10)
#: Seeds the backwards-step test scans for its case.
SCAN_SEEDS = range(16)
SEEDS = sorted({int(s) for s in
                os.environ.get("FAULT_FUZZ_SEEDS", "0,1,2").split(",")}
               | set(PINNED))


@pytest.fixture(scope="module")
def trace_path(tmp_path_factory):
    # 512-word buffers: four or five frames per CPU.
    _kernel, facility, _result = run_contention(
        ncpus=NCPUS, workers_per_cpu=2, iterations=30, seed=5,
        buffer_words=512)
    path = str(tmp_path_factory.mktemp("ltt") / "clean.k42")
    save_records(path, facility.snapshot())
    return path


def inject(trace_path, tmp_path, capsys, kind, seed):
    damaged = str(tmp_path / f"{kind}-{seed}.k42")
    assert main(["inject", trace_path, damaged, "--kind", kind,
                 "--seed", str(seed)]) == 0
    capsys.readouterr()
    return damaged


def export(path, out, cpu, capsys):
    rc = main(["export-ltt", path, "-o", out, "--cpu", str(cpu)])
    stdout, stderr = capsys.readouterr()
    return rc, stdout, stderr


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("kind", RECORD_KINDS + FILE_KINDS)
def test_every_cpu_exports_or_refuses_in_one_line(
        trace_path, tmp_path, capsys, kind, seed):
    damaged = inject(trace_path, tmp_path, capsys, kind, seed)
    for cpu in range(NCPUS):
        out = str(tmp_path / f"cpu{cpu}.ltt")
        rc, stdout, stderr = export(damaged, out, cpu, capsys)
        where = (f"{kind} seed {seed} cpu {cpu}; re-run: FAULT_FUZZ_SEEDS="
                 f"{seed} PYTHONPATH=src python -m pytest "
                 f"tests/ltt/test_export_faults.py")
        if rc == 0:
            assert stderr == "", where
            assert stdout.endswith(f"events exported to {out} (cpu {cpu})\n")
            with open(out, "rb") as fh:
                _cpu, events = read_ltt(fh.read())
            times = [e.time_us for e in events]
            assert times == sorted(times), where
        else:
            assert rc == 2 and stdout == "", where
            assert stderr.startswith("repro-trace: error: "), where
            assert stderr.count("\n") == 1, where
            assert not os.path.exists(out), where


def test_backwards_step_names_the_event(trace_path, tmp_path, capsys):
    """The first ``header-bitflip`` seed that steps a CPU back is refused
    naming the event, and the other CPUs of the same file still export."""
    for seed in SCAN_SEEDS:
        damaged = inject(trace_path, tmp_path, capsys, "header-bitflip", seed)
        outs = [str(tmp_path / f"{seed}-cpu{cpu}.ltt") for cpu in range(NCPUS)]
        results = [export(damaged, outs[cpu], cpu, capsys)
                   for cpu in range(NCPUS)]
        back = [cpu for cpu, (_rc, _out, err) in enumerate(results)
                if "time steps back" in err]
        if back:
            break
    else:
        pytest.fail(f"no header-bitflip seed in {SCAN_SEEDS} steps a CPU "
                    f"back on this fixture")
    cpu = back[0]
    rc, stdout, stderr = results[cpu]
    assert (rc, stdout) == (2, "")
    assert stderr.startswith(
        f"repro-trace: error: {damaged}: cpu {cpu} seq ")
    assert " offset " in stderr and "time steps back" in stderr
    assert not os.path.exists(outs[cpu])
    assert any(rc == 0 for rc, _out, _err in results), seed


def test_clean_trace_exports_every_cpu(trace_path, tmp_path, capsys):
    for cpu in range(NCPUS):
        out = str(tmp_path / f"cpu{cpu}.ltt")
        rc, stdout, stderr = export(trace_path, out, cpu, capsys)
        assert (rc, stderr) == (0, "")
        with open(out, "rb") as fh:
            _cpu, events = read_ltt(fh.read())
        assert stdout == f"{len(events)} events exported to {out} (cpu {cpu})\n"
