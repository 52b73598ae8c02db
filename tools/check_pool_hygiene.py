#!/usr/bin/env python
"""Pool-hygiene probe: no leaked workers, no resource-tracker noise.

CI runs this once per start method (``REPRO_POOL_START_METHOD=fork``
and ``spawn``).  A child interpreter exercises every consumer of the
shared pool — parallel decode and store pack — then calls
``pool.shutdown()`` and proves from the inside that no worker process
survived.  The parent then asserts the child exited cleanly with a
silent stderr: any leaked semaphore or shared-memory segment shows up
there as a ``resource_tracker`` warning at interpreter exit, and any
worker that outlives shutdown shows up in the child's process table.

Usage:
    REPRO_POOL_START_METHOD=fork python tools/check_pool_hygiene.py
"""

import os
import subprocess
import sys

EXERCISE = r"""
import os
import sys
import tempfile
import warnings

warnings.simplefilter("error")  # stray warnings fail the probe

from repro.core import pool
from repro.core.columnar import ColumnarTraceReader
from repro.core.parallel import decode_records_columnar_parallel
from repro.core.writer import load_records, save_records
from repro.store import pack_records
from repro.workloads import run_contention
from tests.core.test_parallel import as_comparable

method = os.environ.get("REPRO_POOL_START_METHOD", "(default)")
print(f"exercising pool consumers under start method: {method}")

_k, facility, _ = run_contention(ncpus=2, workers_per_cpu=2,
                                 iterations=30, buffer_words=1024)
records = facility.snapshot()
tmp = tempfile.mkdtemp(prefix="pool-hygiene-")
trace_path = os.path.join(tmp, "t.k42")
save_records(trace_path, records)

# 1. parallel decode, over mmap-backed records (descriptor shipping).
loaded = load_records(trace_path)
par = decode_records_columnar_parallel(loaded, workers=2)
seq = ColumnarTraceReader().decode_records(loaded)
assert as_comparable(par) == as_comparable(seq), "parallel decode differs"

# 2. parallel store pack on the same pool.
store_path = os.path.join(tmp, "t.store")
res = pack_records(records, store_path, shard_events=512, workers=2)
assert res.events > 0, "pack wrote nothing"

kind = pool.pool_kind()
assert kind is not None, "no pool was ever created"
print(f"pool kind: {kind}, size: {pool.pool_size()}")

pool.shutdown()
assert pool.pool_kind() is None and pool.pool_size() == 0

# 3. prove no worker survived shutdown.
import multiprocessing

leaked = multiprocessing.active_children()
assert not leaked, f"leaked worker processes: {leaked}"
me = os.getpid()
if os.path.isdir("/proc"):
    kids = []
    for pid in os.listdir("/proc"):
        if not pid.isdigit():
            continue
        try:
            with open(f"/proc/{pid}/stat") as fh:
                fields = fh.read().split()
            if int(fields[3]) != me:
                continue
            with open(f"/proc/{pid}/cmdline", "rb") as fh:
                cmdline = fh.read().replace(b"\0", b" ").decode(
                    "utf-8", "replace")
            # The multiprocessing resource tracker is per-interpreter,
            # not per-pool; it exits with us and is not a leaked worker.
            if "resource_tracker" in cmdline:
                continue
            kids.append((pid, cmdline.strip()))
        except (OSError, IndexError, ValueError):
            continue
    assert not kids, f"processes still parented to this one: {kids}"
print("pool hygiene: ok")
"""


def main() -> int:
    env = dict(os.environ)
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (os.path.join(root, "src"), root,
                    env.get("PYTHONPATH", "")) if p)
    proc = subprocess.run(
        [sys.executable, "-c", EXERCISE],
        env=env, cwd=root, capture_output=True, text=True, timeout=600)
    sys.stdout.write(proc.stdout)
    sys.stderr.write(proc.stderr)
    if proc.returncode != 0:
        print("FAIL: exercise exited non-zero", file=sys.stderr)
        return 1
    noisy = [ln for ln in proc.stderr.splitlines() if ln.strip()]
    if noisy:
        # resource_tracker leak reports land on stderr at interpreter
        # exit, after the in-process assertions have already passed.
        print("FAIL: stderr was not silent:", file=sys.stderr)
        return 1
    print("PASS: no leaked workers, stderr silent")
    return 0


if __name__ == "__main__":
    sys.exit(main())
