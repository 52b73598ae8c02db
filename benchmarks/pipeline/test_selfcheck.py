"""Self-test of the pipeline benchmark: ``pytest benchmarks/pipeline``.

Runs every workload once at ``--smoke`` scale (tiny inputs, 1 s) and
checks the benchmark against its own contract: every metric and
workload named in BENCHMARK.json is emitted with its unit, the ledger
reconciles, same seed gives the same inputs, and each correctness check
really fails when a fault is planted.
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
REPO = os.path.dirname(os.path.dirname(HERE))
RUN = [sys.executable, os.path.join(HERE, "run.py")]

sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(REPO, "src"))

import compare  # noqa: E402
import gen  # noqa: E402
import harness  # noqa: E402

with open(os.path.join(REPO, "BENCHMARK.json")) as _fh:
    SPEC = json.load(_fh)
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def run(*args, cwd=REPO, cmd=RUN):
    """``(rc, last-line JSON or None, stdout)`` of one run.py call."""
    proc = subprocess.run([*cmd, *args], cwd=cwd, text=True, timeout=300,
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        result = None
    return proc.returncode, result, proc.stdout


@pytest.fixture(scope="module")
def smoke(tmp_path_factory):
    """One smoke pass over every workload, untraced and traced."""
    out_dir = tmp_path_factory.mktemp("pipeline")
    report = out_dir / "report.json"
    rc, _result, stdout = run("--smoke", "--trace", "1", "--out",
                              str(report), "--out-dir", str(out_dir))
    assert rc == 0, stdout
    with open(report) as fh:
        runs = json.load(fh)["runs"]
    return {"dir": out_dir, "report": report, "stdout": stdout,
            "runs": {(r["workload"], r["trace"]): r for r in runs}}


def test_spec_matches_the_contract_limits():
    assert SPEC["paths"] == ["benchmarks/pipeline"]
    assert 2 <= len(WORKLOADS) <= 8 and 1 <= SPEC["run_seconds"] <= 60
    names = [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    assert len(names) == len(set(names)) and len(SPEC["per_layer"]) <= 128
    setup = [m for m in SPEC["end_to_end"] if m["name"] == "setup_s"]
    assert setup and setup[0]["unit"] == "s" and setup[0]["better"] == "lower"
    assert all(0 < m["bound"] <= 0.25 for m in SPEC["end_to_end"])
    assert setup[0]["bound"] == max(m["bound"] for m in SPEC["end_to_end"])
    assert all(len(w["why"]) <= 200 for w in SPEC["workloads"])


def test_every_workload_emits_every_metric_with_its_unit(smoke):
    entered = set()
    for wl in WORKLOADS:
        for trace, listed in ((0, SPEC["end_to_end"]), (1, SPEC["per_layer"])):
            rec = smoke["runs"][(wl, trace)]
            res = rec["result"]
            assert res["correct"] and res["failed"] == 0, (wl, rec["detail"])
            assert res["attempted"] >= 1
            assert {n: m["unit"] for n, m in res["metrics"].items()} == \
                {m["name"]: m["unit"] for m in listed}, (wl, trace)
            if trace:
                entered |= set(rec["entered"])
            else:
                assert all(m["value"] > 0 for m in res["metrics"].values()), wl
    # Every per-layer metric is measured by the workload that owns it.
    assert entered == {m["name"] for m in SPEC["per_layer"]}


def test_metrics_are_printed_by_name_with_unit(smoke):
    for m in SPEC["end_to_end"] + SPEC["per_layer"]:
        assert any(line.split()[:1] == [m["name"]] and line.endswith(m["unit"])
                   for line in smoke["stdout"].splitlines()), m["name"]


def test_ledger_reconciles_and_layers_dominate_their_workload(smoke):
    for wl in WORKLOADS:
        led = smoke["runs"][(wl, 1)]["detail"]["ledger"]
        assert led["attributed_share"] >= 0.9, (wl, led)
        with open(smoke["dir"] / f"trace_{wl}.json") as fh:
            doc = json.load(fh)
        assert doc["columns"] == ["name", "start_ns", "end_ns", "parent",
                                  "op_id"]
        assert doc["spans"] and all(s[2] >= s[1] for s in doc["spans"])
        if wl == "store":  # decode happens in setup only
            assert not [s for s in doc["spans"]
                        if s[0].startswith(("core.columnar", "core.writer"))]
    pm = smoke["runs"][("postmortem", 1)]["result"]["metrics"]
    assert pm["core.columnar.decode_share"]["value"] >= 0.7
    assert pm["trace_overhead_ratio"]["value"] > 0


def test_report_is_honest_about_the_environment(smoke):
    for rec in smoke["runs"].values():
        env = rec["env"]
        assert env["nproc"] >= 1 and env["python"] and env["numpy"]
        assert env["pool_start_method"] in ("fork", "spawn", "forkserver",
                                            "none")
        assert rec["detail"]["leaks"] == []
    live = smoke["runs"][("shm_live", 0)]
    assert live["detail"]["writers"] == live["env"]["live_writers"]
    assert live["detail"]["degraded"] == (live["env"]["nproc"] < 2)
    assert live["detail"]["dropped_events"] == 0


def test_same_seed_same_inputs_other_seed_other_inputs(smoke):
    assert gen.call_pattern(1) == gen.call_pattern(1) != gen.call_pattern(2)
    assert gen.live_salt(1) == gen.live_salt(1) != gen.live_salt(2)
    times = {cpu: [i / 1000 for i in range(1000)] for cpu in range(8)}
    assert gen.store_ops(1, times) == gen.store_ops(1, times) \
        != gen.store_ops(2, times)
    counts = [sum(1 for m, _i, _w in gen.call_pattern(s) if m == "log1")
              for s in (1, 2)]
    assert counts == [350, 350]  # the seed moves content, never the amount

    # The two trace-reading workloads generate the same file from seed 1.
    pm = smoke["runs"][("postmortem", 0)]["detail"]
    st = smoke["runs"][("store", 0)]["detail"]
    assert pm["trace_sha256"] == st["trace_sha256"]
    # A second seed: still correct, different inputs of the same size.
    rc, result, stdout = run("--workload", "store", "--smoke", "--seed", "2",
                             "--out", str(smoke["dir"] / "seed2.json"))
    assert rc == 0 and result["correct"], stdout
    with open(smoke["dir"] / "seed2.json") as fh:
        other = json.load(fh)["runs"][0]["detail"]
    assert other["trace_sha256"] != st["trace_sha256"]
    assert other["mix_sha256"] != st["mix_sha256"]
    assert other["ops_per_cycle"] == st["ops_per_cycle"]


@pytest.mark.parametrize("workload,fault", [
    ("postmortem", "flip-hash"),      # a flipped reference hash
    ("store", "truncate-shard"),      # a truncated shard
    ("shm_live", "skip-seq"),         # a writer that skips one number
])
def test_each_check_trips_on_a_planted_fault(workload, fault):
    rc, result, stdout = run("--workload", workload, "--smoke",
                             "--fault", fault)
    assert rc == 1, stdout
    assert result is not None and not result["correct"], stdout
    assert 1 <= result["failed"] <= result["attempted"]


def test_leak_check_sees_a_leak():
    hygiene = harness.Hygiene()
    os.makedirs(harness.WORK_ROOT, exist_ok=True)
    stray = os.path.join(harness.WORK_ROOT, "stray-selfcheck")
    os.mkdir(stray)
    fd = os.open(os.devnull, os.O_RDONLY)
    try:
        found = hygiene.leaks()
    finally:
        os.close(fd)
        os.rmdir(stray)
    assert any("stray-selfcheck" in f for f in found)
    assert any(f.startswith("fd:") for f in found)
    assert harness.Hygiene().leaks() == []


def test_compare_applies_the_bounds(smoke, tmp_path, capsys):
    assert compare.main(str(smoke["report"]), str(smoke["report"])) == 0
    assert "unresolved" not in capsys.readouterr().out.replace(
        "nothing unresolved", "")

    with open(smoke["report"]) as fh:
        doc = json.load(fh)
    for rec in doc["runs"]:
        if rec["workload"] == "log_hot" and not rec["trace"]:
            rec["result"]["metrics"]["events_per_s"]["value"] *= 0.5
    slow = tmp_path / "slow.json"
    slow.write_text(json.dumps(doc))
    assert compare.main(str(smoke["report"]), str(slow)) == 1
    rows = [ln for ln in capsys.readouterr().out.splitlines()
            if ln.startswith("log_hot") and "events_per_s" in ln]
    assert len(rows) == 1 and rows[0].split()[-2] == "regression"

    a = [100.0, 101.0, 99.0, 100.5, 100.2]
    assert compare.verdict(a, [v * 1.02 for v in a], "lower", 0.1)[0] == "ok"
    assert compare.verdict(a, [v * 1.2 for v in a], "lower", 0.1)[0] \
        == "regression"
    noisy = [60.0, 100.0, 140.0, 80.0, 120.0]
    assert compare.verdict(noisy, noisy, "lower", 0.1)[0] == "unresolved"
    assert compare.verdict(noisy, [v / 10 for v in noisy], "lower", 0.1)[0] \
        == "improved"


def test_exits_nonzero_without_the_program(tmp_path):
    """Only BENCHMARK.json and the benchmark's own directory: no result."""
    shutil.copy(os.path.join(REPO, "BENCHMARK.json"), tmp_path)
    dest = tmp_path / "benchmarks" / "pipeline"
    shutil.copytree(HERE, dest, ignore=shutil.ignore_patterns(
        ".work", "out", "__pycache__"))
    rc, result, stdout = run(
        "--workload", "log_hot", "--seed", "1", "--seconds", "1",
        "--trace", "0", cwd=tmp_path,
        cmd=[sys.executable, "benchmarks/pipeline/run.py"])
    assert rc != 0 and result is None, stdout
