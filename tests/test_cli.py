"""CLI front-end tests (repro-trace)."""

import argparse

import pytest

from repro.cli import main
from repro.core.crashdump import write_dump
from repro.core.faults import FILE_KINDS
from repro.core.writer import save_records
from repro.reports import REPORTS
from repro.workloads import run_contention, run_multiprog


@pytest.fixture(scope="module")
def artifacts(tmp_path_factory):
    """A trace file + symbols file + crash dump, like a user would have."""
    d = tmp_path_factory.mktemp("cli")
    kernel, facility, _ = run_contention(ncpus=2, workers_per_cpu=2,
                                         iterations=20)
    trace_path = str(d / "trace.k42")
    save_records(trace_path, facility.flush())
    syms_path = str(d / "syms.json")
    kernel.symbols().save(syms_path)

    # A flight-recorder crash dump from a different run.
    k2, fac2, _ = run_multiprog(ncpus=2, jobs_per_cpu=3, seed=31)
    dump_path = str(d / "core.img")
    with open(dump_path, "wb") as fh:
        write_dump(fac2.controls, fh)
    return dict(trace=trace_path, syms=syms_path, dump=dump_path, dir=d)


def test_info(artifacts, capsys):
    assert main(["info", artifacts["trace"]]) == 0
    out = capsys.readouterr().out
    assert "events:" in out and "time span:" in out and "cpus: [0, 1]" in out


def test_info_on_a_healthy_snapshot_has_no_anomalies(tmp_path, capsys):
    """A flight-recorder snapshot carries only booked buffers: a ring
    with unused slots yields no phantom frames to call garbled."""
    _kernel, facility, _ = run_contention(ncpus=2, workers_per_cpu=2,
                                          iterations=20, buffer_words=512)
    assert facility.controls[0].index() < 512 * 4  # most slots unused
    path = str(tmp_path / "snap.k42")
    save_records(path, facility.snapshot())
    assert main(["info", path]) == 0
    assert "  anomalies: 0\n" in capsys.readouterr().out


def test_cached_parser_keeps_no_state_between_calls(artifacts, capsys):
    """``main`` parses with one parser per process; every call starts
    from the declared defaults, whatever the call before it did."""
    from repro.cli import _parser

    assert _parser() is _parser()
    trace = artifacts["trace"]

    def listing(*flags):
        assert main(["list", trace, *flags]) == 0
        return capsys.readouterr().out

    every = listing()
    named = listing("--name", "TRC_SYSCALL_ENTER")
    assert 0 < len(named.splitlines()) < len(every.splitlines())
    assert listing() == every
    one_cpu = listing("--cpu", "1")
    assert 0 < len(one_cpu.splitlines()) < len(every.splitlines())
    assert _parser().parse_args(["list", trace]).cpu is None
    assert listing() == every
    with pytest.raises(SystemExit):
        main(["list", trace, "--limit", "many"])
    assert main(["list", str(artifacts["dir"] / "missing.k42")]) == 2
    capsys.readouterr()
    assert listing() == every


def test_verify(artifacts, capsys):
    assert main(["verify", artifacts["trace"]]) == 0
    assert "trace clean" in capsys.readouterr().out


def test_list_with_filters(artifacts, capsys):
    assert main(["list", artifacts["trace"], "--limit", "15",
                 "--name", "TRC_SYSCALL_ENTER"]) == 0
    out = capsys.readouterr().out
    lines = out.strip().splitlines()
    assert 0 < len(lines) <= 15
    assert all("TRC_SYSCALL_ENTER" in l for l in lines)


def test_kmon_text_and_svg(artifacts, capsys):
    svg_path = str(artifacts["dir"] / "timeline.svg")
    assert main(["kmon", artifacts["trace"], "--width", "50",
                 "--mark", "TRC_USER_RETURNED_MAIN", "--svg", svg_path]) == 0
    out = capsys.readouterr().out
    assert "cpu0" in out and "cpu1" in out
    with open(svg_path) as fh:
        assert fh.read().startswith("<svg")


def test_locks_with_symbols(artifacts, capsys):
    assert main(["locks", artifacts["trace"], "--symbols",
                 artifacts["syms"], "--top", "3"]) == 0
    out = capsys.readouterr().out
    assert "top 3 contended locks" in out
    assert "GMalloc" in out or "Dentry" in out


def test_profile_with_symbols(artifacts, capsys):
    assert main(["profile", artifacts["trace"], "--symbols",
                 artifacts["syms"]]) == 0
    out = capsys.readouterr().out
    assert "count method" in out


def test_breakdown_for_pid(artifacts, capsys):
    assert main(["breakdown", artifacts["trace"], "--symbols",
                 artifacts["syms"], "--pid", "1"]) == 0
    out = capsys.readouterr().out
    assert "thread entry points" in out


def test_breakdown_unknown_pid_fails(artifacts, capsys):
    assert main(["breakdown", artifacts["trace"], "--pid", "4242"]) == 1


def test_histogram(artifacts, capsys):
    assert main(["histogram", artifacts["trace"], "--top", "5"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert len(lines) == 5


def test_holds(artifacts, capsys):
    assert main(["holds", artifacts["trace"], "--symbols",
                 artifacts["syms"], "--top", "5"]) == 0
    out = capsys.readouterr().out
    assert "lock holds analyzed" in out


def test_sched(artifacts, capsys):
    assert main(["sched", artifacts["trace"], "--symbols",
                 artifacts["syms"]]) == 0
    out = capsys.readouterr().out
    assert "CPU time by process" in out


def test_compare(artifacts, capsys):
    # Comparing a trace with itself: neutral report, still renders.
    assert main(["compare", artifacts["trace"], artifacts["trace"],
                 "--symbols", artifacts["syms"]]) == 0
    out = capsys.readouterr().out
    assert "elapsed:" in out and "1.00x" in out


def test_iostats(artifacts, capsys):
    assert main(["iostats", artifacts["trace"]]) == 0
    assert "I/O operations" in capsys.readouterr().out


def test_crashdump(artifacts, capsys):
    assert main(["crashdump", artifacts["dump"], "--last", "6"]) == 0
    out = capsys.readouterr().out
    assert "flight recorder" in out


def test_crashdump_oversized_section_is_one_issue_line(tmp_path, capsys):
    """A section declaring more bytes than the image holds is one issue
    line and exit 1, not a MemoryError traceback."""
    from repro.core.facility import TraceFacility
    from tests.core.test_crashdump import oversized_section_image

    fac = TraceFacility(ncpus=1, buffer_words=64, num_buffers=4,
                        mode="flight")
    fac.enable_all()
    path = tmp_path / "oversized.k42crash"
    path.write_bytes(oversized_section_image(fac))
    assert main(["crashdump", str(path)]) == 1
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1, err
    assert err.startswith("dump issue (cpu section 0): truncated dump: ")


def test_export_ltt(artifacts, capsys):
    out_path = str(artifacts["dir"] / "cpu0.ltt")
    assert main(["export-ltt", artifacts["trace"], "--cpu", "0",
                 "-o", out_path]) == 0
    from repro.ltt.export import read_ltt

    with open(out_path, "rb") as fh:
        cpu, events = read_ltt(fh.read())
    assert cpu == 0 and events


def test_symbols_roundtrip(artifacts):
    from repro.ksim.kernel import SymbolTable

    sym = SymbolTable.load(artifacts["syms"])
    assert sym.pc_names and sym.lock_names and sym.syscall_names
    again = SymbolTable.from_json(sym.to_json())
    assert again == sym


def test_verify_fails_on_corrupt_trace(artifacts, capsys, tmp_path):
    raw = bytearray(open(artifacts["trace"], "rb").read())
    raw[5000:5100] = b"\x00" * 100  # stomp mid-file
    bad = tmp_path / "bad.k42"
    bad.write_bytes(bytes(raw))
    rc = main(["verify", str(bad)])
    assert rc == 1


def test_doctor_clean(artifacts, capsys):
    assert main(["doctor", artifacts["trace"]]) == 0
    out = capsys.readouterr().out
    assert "file-level damage: none" in out
    assert "trace clean" in out


def test_inject_then_doctor(artifacts, capsys, tmp_path):
    bad = str(tmp_path / "bad.k42")
    assert main(["inject", artifacts["trace"], bad,
                 "--kind", "torn-event", "--seed", "5"]) == 0
    out = capsys.readouterr().out
    assert "injected torn-event" in out

    rc = main(["doctor", bad])
    out = capsys.readouterr().out
    assert rc == 1
    assert "garbled" in out
    assert "recovered-region" in out
    assert "salvaged" in out


def test_inject_file_fault_then_doctor(artifacts, capsys, tmp_path):
    bad = str(tmp_path / "badframe.k42")
    assert main(["inject", artifacts["trace"], bad,
                 "--kind", "frame-magic", "--seed", "2"]) == 0
    capsys.readouterr()
    rc = main(["doctor", bad])
    out = capsys.readouterr().out
    assert rc == 1
    assert "file-level damage (1 issues)" in out
    assert "damaged frame" in out


def test_inject_deterministic(artifacts, tmp_path, capsys):
    a = tmp_path / "a.k42"
    b = tmp_path / "b.k42"
    for p in (a, b):
        assert main(["inject", artifacts["trace"], str(p),
                     "--kind", "header-bitflip", "--seed", "9"]) == 0
    capsys.readouterr()
    assert a.read_bytes() == b.read_bytes()


def _subcommands():
    from repro.cli import build_parser

    parser = build_parser()
    for action in parser._subparsers._group_actions:
        return sorted(action.choices)
    return []


@pytest.mark.parametrize("command", _subcommands())
def test_every_subcommand_has_help(command, capsys):
    """`repro-trace <cmd> --help` must exit 0 for every subcommand."""
    with pytest.raises(SystemExit) as exc:
        main([command, "--help"])
    assert exc.value.code == 0
    out = capsys.readouterr().out
    assert "usage:" in out


def test_help_lists_every_subcommand(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--help"])
    assert exc.value.code == 0
    out = capsys.readouterr().out
    for command in _subcommands():
        assert command in out


def test_check_clean_run(capsys):
    assert main(["check", "--writers", "2", "--events", "1",
                 "--preemption-bound", "1"]) == 0
    out = capsys.readouterr().out
    assert "all interleavings pass" in out


def test_check_list_mutants(capsys):
    assert main(["check", "--list-mutants"]) == 0
    out = capsys.readouterr().out
    assert "reset-on-book" in out and "non-atomic-reserve" in out


def test_check_mutant_save_replay_cycle(capsys, tmp_path):
    """Catch a mutant, save its counterexample, replay it byte-for-byte."""
    cex = str(tmp_path / "cex.json")
    assert main(["check", "--mutant", "non-atomic-reserve",
                 "--save", cex]) == 1
    out = capsys.readouterr().out
    assert "VIOLATION" in out or "double-write" in out
    assert "--replay" in out  # re-run hint printed

    assert main(["check", "--replay", cex]) == 1
    out = capsys.readouterr().out
    assert "reproduced: double-write" in out


def test_check_replay_clean_script(capsys, tmp_path):
    """A clean schedule script replays to exit 0."""
    from repro.check import CheckConfig, run_schedule, save_script
    from repro.check.script import ScheduleScript

    outcome = run_schedule(CheckConfig(writers=2, events=1))
    path = str(tmp_path / "clean.json")
    save_script(ScheduleScript.from_outcome(outcome), path)
    assert main(["check", "--replay", path]) == 0
    assert "no violation" in capsys.readouterr().out


def test_check_rejects_bad_config(capsys):
    assert main(["check", "--writers", "4", "--events", "8",
                 "--num-buffers", "2"]) == 2
    assert "bad configuration" in capsys.readouterr().err


def test_check_random_mode(capsys):
    assert main(["check", "--mode", "random", "--writers", "2",
                 "--events", "1", "--schedules", "25", "--seed", "7"]) == 0
    out = capsys.readouterr().out
    assert "randomized schedules" in out


def test_strict_flag_stops_at_first_garble(artifacts, capsys, tmp_path):
    bad = str(tmp_path / "bad.k42")
    assert main(["inject", artifacts["trace"], bad,
                 "--kind", "torn-event", "--seed", "5"]) == 0
    capsys.readouterr()
    assert main(["info", bad]) == 0
    loose = capsys.readouterr().out
    assert main(["info", bad, "--strict"]) == 0
    strict = capsys.readouterr().out

    def events(out):
        line = next(l for l in out.splitlines() if l.startswith("events:"))
        return int(line.split()[1])

    assert events(loose) > events(strict)


def test_doctor_strict_decodes_once(artifacts, capsys, tmp_path, monkeypatch):
    """``doctor`` decodes strictly to count what recovery salvaged; under
    ``--strict`` that decode *is* the report's, so there is one."""
    import repro.cli as cli

    bad = str(tmp_path / "bad.k42")
    assert main(["inject", artifacts["trace"], bad,
                 "--kind", "torn-event", "--seed", "5"]) == 0
    capsys.readouterr()
    real, calls = cli.decode_records_columnar, []
    monkeypatch.setattr(
        cli, "decode_records_columnar",
        lambda *a, **kw: calls.append(kw["strict"]) or real(*a, **kw))
    assert main(["doctor", bad]) == 1
    loose = capsys.readouterr()
    assert calls == [True, False] and "recovery salvaged" in loose.out
    del calls[:]
    assert main(["doctor", bad, "--strict"]) == 1
    strict = capsys.readouterr()
    assert calls == [True]
    assert "recovery salvaged" not in strict.out and strict.err == ""
    assert strict.out.splitlines()[:4] == loose.out.splitlines()[:4]


class _RecordingNamespace(argparse.Namespace):
    """A namespace that remembers which attributes were read."""

    def __init__(self):
        object.__setattr__(self, "read", set())

    def __getattribute__(self, name):
        if not name.startswith("_") and name != "read":
            object.__getattribute__(self, "read").add(name)
        return object.__getattribute__(self, name)


#: Every subcommand that reads a trace input, with the runs that between
#: them reach each option (``query`` reads ``--top`` only with
#: ``--aggregate``, and ``--limit``/``--project`` only without it).
_READER_RUNS = {
    **{name: [[name, "TRACE"]] for name in REPORTS},
    "info": [["info", "TRACE"]],
    "verify": [["verify", "TRACE"]],
    "compare": [["compare", "TRACE", "TRACE"]],
    "crashdump": [["crashdump", "DUMP"]],
    "doctor": [["doctor", "TRACE"]],
    "inject": [["inject", "TRACE", "OUT", "--kind", "torn-event"]],
    "export-ltt": [["export-ltt", "TRACE", "-o", "OUT"]],
    "pack": [["pack", "TRACE", "OUT"]],
    "query": [["query", "STORE", "--aggregate", "name"],
              ["query", "STORE", "--project", "cpu"]],
}


@pytest.mark.parametrize("command", sorted(_READER_RUNS))
def test_handler_reads_every_declared_option(command, artifacts, capsys,
                                             tmp_path):
    """An option the parser declares but the handler never reads is a
    dead knob: it shows in ``--help`` and ``docs/cli.md`` and changes
    nothing."""
    from repro.cli import build_parser

    parser = build_parser()
    sub = next(a for a in parser._subparsers._group_actions).choices[command]
    declared = {a.dest for a in sub._actions
                if not isinstance(a, argparse._HelpAction)}
    store = str(tmp_path / "t.store")
    assert main(["pack", artifacts["trace"], store]) == 0
    read = set()
    for i, argv in enumerate(_READER_RUNS[command]):
        names = {"TRACE": artifacts["trace"], "DUMP": artifacts["dump"],
                 "STORE": store, "OUT": str(tmp_path / f"out{i}")}
        args = parser.parse_args([names.get(a, a) for a in argv],
                                 namespace=_RecordingNamespace())
        args.read.clear()   # what parsing itself looked up
        assert args.fn(args) in (0, 1)
        read |= args.read
    capsys.readouterr()
    assert declared - read == set(), "declared but never read"


def _one_error_line(capsys, path):
    """stdout empty; stderr exactly one ``error:`` line naming the file."""
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith(f"repro-trace: error: {path}: ")
    assert err.count("\n") == 1 and "Traceback" not in err
    return err


@pytest.mark.parametrize("kind", FILE_KINDS)
@pytest.mark.parametrize("command", ["info", "locks", "doctor"])
def test_strict_on_file_damage_is_an_error_line(artifacts, capsys, tmp_path,
                                                command, kind):
    """File-level damage under ``--strict``: exit 2 and the reader's
    verdict, not a traceback (and not, as ``info`` once did, a silent
    resync).  Without ``--strict`` the same file is read past."""
    bad = str(tmp_path / "bad.k42")
    assert main(["inject", artifacts["trace"], bad, "--kind", kind]) == 0
    assert main([command, bad]) != 2    # doctor: 1 damage, 0 growing tail
    assert capsys.readouterr().out
    assert main([command, bad, "--strict"]) == 2
    verdict = "bad frame magic" if kind == "frame-magic" else "truncated frame"
    assert verdict in _one_error_line(capsys, bad)


@pytest.mark.parametrize("argv", [
    ["info", "MISSING"], ["verify", "MISSING"], ["list", "MISSING"],
    ["kmon", "MISSING"], ["locks", "MISSING"], ["profile", "MISSING"],
    ["breakdown", "MISSING"], ["histogram", "MISSING"],
    ["memprofile", "MISSING"], ["holds", "MISSING"], ["sched", "MISSING"],
    ["iostats", "MISSING"], ["crashdump", "MISSING"], ["doctor", "MISSING"],
    ["compare", "TRACE", "MISSING"], ["merge", "TRACE", "MISSING"],
    ["inject", "MISSING", "OUT", "--kind", "frame-magic"],
    ["inject", "MISSING", "OUT", "--kind", "torn-event"],
    ["export-ltt", "MISSING", "-o", "OUT"], ["pack", "MISSING", "OUT"],
    ["follow", "MISSING"], ["follow", "MISSING", "--replay", "instant"],
    ["query", "MISSING"], ["locks", "MISSING", "--store"],
], ids=lambda argv: "-".join(a for a in argv if a.islower()))
def test_missing_path_is_an_error_line(artifacts, capsys, tmp_path, argv):
    missing = str(tmp_path / "missing.k42")
    names = {"MISSING": missing, "TRACE": artifacts["trace"],
             "OUT": str(tmp_path / "out")}
    assert main([names.get(a, a) for a in argv]) == 2
    _one_error_line(capsys, missing)


@pytest.mark.parametrize("argv", [
    ["follow"], ["pack", "TRACE", "STORE"], ["merge", "TRACE", "-o", "STORE"],
], ids=lambda argv: "-".join(a for a in argv if a.islower()))
def test_refusal_is_an_error_line(artifacts, capsys, tmp_path, argv):
    """The exit-2 refusals that name no input file — nothing to follow,
    a store already where ``pack``/``merge -o`` would write — end in the
    same one line as an unreadable input."""
    store = str(tmp_path / "held.store")
    assert main(["pack", artifacts["trace"], store]) == 0
    capsys.readouterr()
    names = {"TRACE": artifacts["trace"], "STORE": store}
    assert main([names.get(a, a) for a in argv]) == 2
    err = capsys.readouterr().err
    assert err.startswith("repro-trace: error: ")
    assert err.count("\n") == 1 and "Traceback" not in err


_COLUMNAR_COMMANDS = ("info", "list", "kmon", "locks", "profile",
                      "breakdown", "sched")


@pytest.mark.parametrize("command", _COLUMNAR_COMMANDS)
def test_columnar_flag_in_help(command, capsys):
    """The decoder is columnar-only: no ported subcommand still offers
    a switch between decoders (``--store`` is what remains)."""
    with pytest.raises(SystemExit) as exc:
        main([command, "--help"])
    assert exc.value.code == 0
    out = capsys.readouterr().out
    assert "columnar" not in out and "mmap" not in out
    assert "--store" in out


@pytest.mark.parametrize("command", _COLUMNAR_COMMANDS)
def test_columnar_output_identical(command, artifacts, capsys, tmp_path):
    """The columnar decoder prints the same report from the trace file
    and from a store whose shards ``pack --workers 2`` wrote on a worker
    pool (``info`` prints the path it read, so that line differs)."""
    store = str(tmp_path / "t.store")
    assert main(["pack", artifacts["trace"], store, "--workers", "2"]) == 0
    capsys.readouterr()
    flags = ["--symbols", artifacts["syms"]] if command == "breakdown" else []
    assert main([command, artifacts["trace"], *flags]) == 0
    decoded = capsys.readouterr().out
    assert main([command, store, *flags]) == 0
    stored = capsys.readouterr().out
    if command == "info":
        decoded = decoded.replace(artifacts["trace"], store)
    assert decoded.strip() and stored == decoded


class TestFleetCli:
    def test_help_smoke(self, capsys):
        """merge / fleet-run are registered subcommands with help."""
        for command in ("merge", "fleet-run"):
            assert command in _subcommands()
            with pytest.raises(SystemExit) as exc:
                main([command, "--help"])
            assert exc.value.code == 0
            assert "usage:" in capsys.readouterr().out

    def test_fleet_run_merge_and_node_query(self, tmp_path, capsys):
        run_dir = tmp_path / "run"
        assert main(["fleet-run", "-o", str(run_dir), "--nodes", "2",
                     "--iterations", "6"]) == 0
        out = capsys.readouterr().out
        assert "fleet: 2 nodes" in out and "residual skew bound" in out

        paths = sorted(str(p) for p in run_dir.glob("*.k42"))
        assert len(paths) == 2
        store = str(tmp_path / "fleet.store")
        assert main(["merge", *paths, "-o", store,
                     "--tool", "locks"]) == 0
        out = capsys.readouterr().out
        assert "=== node 0:" in out and "=== node 1:" in out
        assert "=== fleet rollup ===" in out
        assert "packed fleet store:" in out

        assert main(["query", store, "--node", "1", "--limit", "3"]) == 0
        cap = capsys.readouterr()
        assert "pruned by statistics" in cap.err
        assert "node 0: read 0/" in cap.err
        assert "node 1: read" in cap.err

    def test_fleet_run_unimplemented_backend(self, tmp_path, capsys):
        """The stub backends went, and ``--backend`` with them."""
        with pytest.raises(SystemExit) as exc:
            main(["fleet-run", "-o", str(tmp_path / "x"),
                  "--backend", "docker"])
        assert exc.value.code == 2
        assert "--backend" in capsys.readouterr().err
