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
default ``0,1,2``) plus :data:`PINNED`, the seeds known to step a CPU's
time backwards on this fixture.
"""

import os

import pytest

from repro.cli import main
from repro.core.faults import FILE_KINDS, RECORD_KINDS
from repro.core.writer import save_records
from repro.ltt.export import read_ltt
from repro.workloads import run_contention

NCPUS = 4
#: header-bitflip 3, 6, 9 and torn-event 9 each leave one CPU whose time
#: steps backwards past the damage.
PINNED = (3, 6, 9)
SEEDS = sorted({int(s) for s in
                os.environ.get("FAULT_FUZZ_SEEDS", "0,1,2").split(",")}
               | set(PINNED))


@pytest.fixture(scope="module")
def trace_path(tmp_path_factory):
    _kernel, facility, _result = run_contention(
        ncpus=NCPUS, workers_per_cpu=2, iterations=30, seed=5)
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
    damaged = inject(trace_path, tmp_path, capsys, "header-bitflip", 3)
    out = str(tmp_path / "cpu1.ltt")
    rc, stdout, stderr = export(damaged, out, 1, capsys)
    assert (rc, stdout) == (2, "")
    assert stderr.startswith(f"repro-trace: error: {damaged}: cpu 1 seq ")
    assert " offset " in stderr and "time steps back" in stderr
    assert not os.path.exists(out)
    # The other CPUs of the same file still export.
    assert export(damaged, out, 0, capsys)[0] == 0


def test_clean_trace_exports_every_cpu(trace_path, tmp_path, capsys):
    for cpu in range(NCPUS):
        out = str(tmp_path / f"cpu{cpu}.ltt")
        rc, stdout, stderr = export(trace_path, out, cpu, capsys)
        assert (rc, stderr) == (0, "")
        with open(out, "rb") as fh:
            _cpu, events = read_ltt(fh.read())
        assert stdout == f"{len(events)} events exported to {out} (cpu {cpu})\n"
