#!/usr/bin/env python3
"""The pipeline benchmark: six workloads from ``log1()`` to a tool report.

    run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]
        One workload in this process.  Prints every metric by name with
        its unit, then one JSON object as the last line of stdout
        (``correct``, ``attempted``, ``failed``, ``metrics``).  Exits 1
        if any check failed.
    run.py [--runs N] [--trace 1] --out FILE
        Every workload, one fresh process each, N seeds; the collected
        records go to FILE for ``--compare``.
    run.py --compare A.json B.json
        Apply the bounds of BENCHMARK.json to two such files.

See README.md beside this file for the workloads and the metric tables.
"""

import time

_T0 = time.perf_counter()  # before numpy: set-up time includes the imports

import argparse
import json
import os
import signal
import subprocess
import sys
import types

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(HERE)), "src"))

#: workload -> module that runs it.
MODULES = {
    "log_hot": "wl_log", "log_shm": "wl_log", "log_masked": "wl_log",
    "shm_live": "wl_live", "postmortem": "wl_postmortem",
    "store": "wl_store",
}
#: The traced run must attribute this share of its op time to a stage.
MIN_ATTRIBUTED = 0.9
SMOKE_SCALE = 0.02
FAULTS = ("flip-hash", "truncate-shard", "skip-seq")


def run_workload(args):
    """One workload, here; returns the record written to ``--out``."""
    import harness

    spec = harness.load_spec()
    module = __import__(MODULES[args.workload])
    import_s = time.perf_counter() - _T0

    tracer = harness.Tracer() if args.trace else None
    ctx = types.SimpleNamespace(
        seed=args.seed,
        seconds=args.seconds if args.seconds is not None
        else (1.0 if args.smoke else float(spec["run_seconds"])),
        scale=SMOKE_SCALE if args.smoke else 1.0,
        setup_reps=1 if args.smoke else 3,
        tracer=tracer, fault=args.fault)
    hygiene = harness.Hygiene()
    res = module.run(ctx, args.workload)
    leaks = hygiene.leaks()

    failed = int(res["failed"]) + len(leaks)
    detail = res["detail"]
    detail["leaks"] = leaks
    detail["import_s"] = import_s
    metrics = res["metrics"]
    if tracer is None:
        listed = spec["end_to_end"]
        metrics["setup_s"] = import_s + res["setup_s"]
        metrics["peak_rss_mb"] = harness.peak_rss_mb()
    else:
        listed = spec["per_layer"]
        stages, wall_ns, share = harness.ledger(tracer.spans)
        detail["ledger"] = {
            "traced_wall_s": wall_ns / 1e9, "attributed_share": share,
            "stages": {name: {"n": st["n"], "self_s": st["self_ns"] / 1e9,
                              "share": st["self_ns"] / wall_ns}
                       for name, st in sorted(stages.items())}}
        if share < MIN_ATTRIBUTED:
            failed += 1
            detail["ledger"]["error"] = (
                f"stages explain {share:.1%} of the traced wall, "
                f"below {MIN_ATTRIBUTED:.0%}")
        os.makedirs(args.out_dir, exist_ok=True)
        tracer.dump(os.path.join(args.out_dir,
                                 f"trace_{args.workload}.json"),
                    workload=args.workload, seed=args.seed)

    # The driver wants every listed metric from every workload; a layer
    # this workload never enters did no work, which reads as 0.
    unknown = sorted(set(metrics) - {m["name"] for m in listed})
    if unknown:
        raise SystemExit(f"metrics not in BENCHMARK.json: {unknown}")
    entered = set(metrics)
    out_metrics = {m["name"]: {"value": metrics.get(m["name"], 0.0),
                               "unit": m["unit"]} for m in listed}
    result = {"correct": failed == 0, "attempted": int(res["attempted"]),
              "failed": failed, "metrics": out_metrics}

    print(f"workload {args.workload}  seed {args.seed}  "
          f"trace {args.trace}  seconds {ctx.seconds:g}")
    for m in listed:
        if m["name"] in entered:
            print(f"  {m['name']:<34} "
                  f"{out_metrics[m['name']]['value']:>16.6g} {m['unit']}")
    if tracer is not None:
        led = detail["ledger"]
        print(f"  ledger: {led['attributed_share']:.1%} of "
              f"{led['traced_wall_s']:.3f} s traced attributed")
        for name, st in led["stages"].items():
            print(f"    {name:<32} n={st['n']:<6} "
                  f"self {st['self_s']:9.4f} s  {st['share']:6.1%}")
        if "error" in led:
            print(f"  FAILED: {led['error']}")
    for problem in leaks + detail.get("problems", []):
        print(f"  FAILED: {problem}")

    record = {"workload": args.workload, "seed": args.seed,
              "trace": args.trace, "seconds": ctx.seconds,
              "smoke": args.smoke, "entered": sorted(entered),
              "env": harness.environment(), "result": result,
              "detail": detail}
    if args.out:
        with open(args.out, "w") as fh:
            json.dump({"runs": [record]}, fh, indent=1)
    print(json.dumps(result), flush=True)
    return record


def run_all(args):
    """Every workload × ``--runs`` seeds, each in a fresh interpreter."""
    import harness

    spec = harness.load_spec()
    os.makedirs(args.out_dir, exist_ok=True)
    part = os.path.join(args.out_dir, f".part-{os.getpid()}.json")
    runs = []
    worst = 0
    for r in range(args.runs):
        for wl in [w["name"] for w in spec["workloads"]]:
            for trace in ((0, 1) if args.trace else (0,)):
                cmd = [sys.executable, os.path.abspath(__file__),
                       "--workload", wl, "--seed", str(args.seed + r),
                       "--trace", str(trace), "--out", part,
                       "--out-dir", args.out_dir]
                if args.seconds is not None:
                    cmd += ["--seconds", str(args.seconds)]
                if args.smoke:
                    cmd.append("--smoke")
                proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
                sys.stdout.write(proc.stdout.rsplit("\n", 2)[0] + "\n")
                worst = max(worst, proc.returncode)
                if os.path.exists(part):
                    with open(part) as fh:
                        runs += json.load(fh)["runs"]
                    os.unlink(part)
    if args.out:
        with open(args.out, "w") as fh:
            json.dump({"runs": runs}, fh, indent=1)
    return worst


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=sorted(MODULES))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float,
                    help="measured time per run (default: run_seconds "
                         "of BENCHMARK.json)")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0,
                    help="1: spans on, report per-layer metrics")
    ap.add_argument("--smoke", action="store_true",
                    help="tiny inputs and a 1 s run, for the self-test")
    ap.add_argument("--runs", type=int, default=1,
                    help="seeds per workload when no --workload is given")
    ap.add_argument("--out", metavar="FILE",
                    help="write the full record(s) as JSON; do not name it "
                         "BENCH_*.json, that pattern is gitignored")
    ap.add_argument("--out-dir", metavar="DIR",
                    default=os.path.join(HERE, "out"),
                    help="where trace_<workload>.json goes")
    ap.add_argument("--fault", choices=FAULTS,
                    help="self-test only: plant a fault a check must catch")
    ap.add_argument("--compare", nargs=2, metavar=("A.json", "B.json"))
    args = ap.parse_args(argv)

    if args.compare:
        import compare

        return compare.main(*args.compare)
    if args.workload is None:
        return run_all(args)
    import harness

    # A polite kill unwinds like Ctrl-C, so the finally runs; not as
    # SystemExit, which cli_call() takes for an argparse exit and counts.
    signal.signal(signal.SIGTERM, signal.default_int_handler)
    try:
        record = run_workload(args)
    finally:
        # Every way out, the failing ones too: nothing we started may
        # outlive us, or a later run could be served by it.
        harness.stop_processes()
    return 0 if record["result"]["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
