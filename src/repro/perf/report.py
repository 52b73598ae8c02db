"""Report assembly and rendering for the benchmark harness.

The JSON document (schema.py) is the source of truth; the human-facing
``benchmarks/results/*.txt`` tables are *renderings* of it.  Benchmark
code produces narrative text through :func:`write_result`; when a
harness run is active the text is captured into the run's report (and
written to disk when the report is saved), otherwise — e.g. under a
plain pytest invocation — it is written straight to the results
directory.
"""

from __future__ import annotations

import datetime
import json
from pathlib import Path
from typing import Any, Dict, List, Optional

from repro.perf.schema import REPORT_KIND, SCHEMA_VERSION, validate_report

#: Default directory for the human-readable .txt renderings; callers
#: (the CLI, benchmarks/conftest.py) point this at a checkout's
#: benchmarks/results.
RESULTS_DIR = Path("benchmarks") / "results"

#: When a harness run is active, narratives are captured here instead of
#: (only) being written to disk immediately.
_ACTIVE_NARRATIVES: Optional[Dict[str, str]] = None


def set_results_dir(path: Path) -> None:
    global RESULTS_DIR
    RESULTS_DIR = Path(path)


def begin_capture() -> Dict[str, str]:
    """Start capturing narratives for a harness run."""
    global _ACTIVE_NARRATIVES
    _ACTIVE_NARRATIVES = {}
    return _ACTIVE_NARRATIVES


def end_capture() -> None:
    global _ACTIVE_NARRATIVES
    _ACTIVE_NARRATIVES = None


def write_result(name: str, text: str) -> Path:
    """Record a narrative table and write its .txt rendering: captured
    into the active harness run (if any), written under
    :data:`RESULTS_DIR`, and echoed to stdout."""
    if _ACTIVE_NARRATIVES is not None:
        _ACTIVE_NARRATIVES[name] = text
    RESULTS_DIR.mkdir(parents=True, exist_ok=True)
    path = RESULTS_DIR / f"{name}.txt"
    path.write_text(text + "\n")
    print(f"\n=== {name} ===\n{text}\n[written to {path}]")
    return path


def utc_timestamp() -> str:
    return datetime.datetime.now(datetime.timezone.utc).strftime(
        "%Y-%m-%dT%H:%M:%SZ")


def make_report(*, environment: Dict[str, Any], quick: bool,
                filter_pattern: Optional[str],
                benchmarks: List[Dict[str, Any]],
                narratives: Dict[str, str]) -> Dict[str, Any]:
    return {
        "schema_version": SCHEMA_VERSION,
        "kind": REPORT_KIND,
        "created": utc_timestamp(),
        "quick": quick,
        "filter": filter_pattern,
        "environment": environment,
        "benchmarks": benchmarks,
        "narratives": narratives,
    }


def default_report_path(directory: Path = Path(".")) -> Path:
    stamp = datetime.datetime.now(datetime.timezone.utc).strftime(
        "%Y%m%dT%H%M%SZ")
    return Path(directory) / f"BENCH_{stamp}.json"


def save_report(report: Dict[str, Any], path: Path,
                render_narratives: bool = True) -> Path:
    """Validate and write the consolidated JSON; re-render .txt tables.

    Refuses to persist a schema-invalid document — the gate must never
    compare against garbage.
    """
    problems = validate_report(report)
    if problems:
        raise ValueError("refusing to save schema-invalid report: "
                         + "; ".join(problems))
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(report, indent=2, sort_keys=False) + "\n")
    if render_narratives:
        RESULTS_DIR.mkdir(parents=True, exist_ok=True)
        for name, text in report.get("narratives", {}).items():
            (RESULTS_DIR / f"{name}.txt").write_text(text + "\n")
    return path


def load_report(path: Path) -> Dict[str, Any]:
    """Load and schema-check a report; raises ValueError with details."""
    with open(path) as fh:
        doc = json.load(fh)
    problems = validate_report(doc)
    if problems:
        raise ValueError(f"{path}: " + "; ".join(problems))
    return doc


def _fmt_ns(ns: float) -> str:
    if ns >= 1e9:
        return f"{ns / 1e9:.2f} s"
    if ns >= 1e6:
        return f"{ns / 1e6:.2f} ms"
    if ns >= 1e3:
        return f"{ns / 1e3:.2f} us"
    return f"{ns:.0f} ns"


def render_report(report: Dict[str, Any]) -> str:
    """The console table: one row per benchmark, median +/- MAD."""
    env = report.get("environment", {})
    lines = [
        f"repro benchmark report — {report.get('created', '?')}"
        + ("  [quick tier]" if report.get("quick") else ""),
        f"python {env.get('python')} on {env.get('platform')} "
        f"({env.get('cpu_count')} cpus)",
        "",
        f"{'benchmark':<38} {'median':>12} {'mad':>10} "
        f"{'repeats':>8} {'loops':>8}",
    ]
    for entry in report.get("benchmarks", []):
        lines.append(
            f"{entry['name']:<38} {_fmt_ns(entry['median_ns']):>12} "
            f"{_fmt_ns(entry['mad_ns']):>10} {entry['repeats']:>8} "
            f"{entry['inner_loops']:>8}")
    n = len(report.get("benchmarks", []))
    lines.append("")
    lines.append(f"{n} benchmark{'s' if n != 1 else ''}; "
                 f"{len(report.get('narratives', {}))} narrative tables")
    return "\n".join(lines)
