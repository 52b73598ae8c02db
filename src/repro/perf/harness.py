"""The unified benchmark harness: registration, execution, reporting.

Usage in a benchmark module::

    from repro.perf import benchmark

    @benchmark("event_cost.one_word", quick=True)
    def bench_one_word(b):
        logger = make_logger()          # setup, untimed
        b(lambda: logger.log1(Major.TEST, 1, 42))   # timed kernel
        b.note("buffer_words", 16 * 1024)           # optional extras

The decorated function receives a :class:`Bench` handle; calling it with
a zero-argument kernel performs the calibrated warmup/repeat measurement
(timing.py) and returns the kernel's last return value, so correctness
assertions can ride along.  ``b.quick`` tells the function whether it is
running in the quick tier and should downscale its workload.

``run_benchmarks`` executes a selection and returns the consolidated,
schema-valid report dict; ``module_main`` is the tiny argv front end
that makes every ``benchmarks/bench_*.py`` runnable standalone.
"""

from __future__ import annotations

import argparse
import fnmatch
import importlib.util
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional

from repro.perf import report as report_mod
from repro.perf.fingerprint import environment_fingerprint
from repro.perf.timing import TimingResult, measure

#: Default per-benchmark regression band for compare.py: flag a
#: slowdown greater than 25% of the baseline median.
DEFAULT_TOLERANCE = 0.25

#: Name of the machine-speed calibration benchmark (always registered).
CALIBRATION_BENCH = "_calibration.spin"


class DuplicateBenchmarkError(ValueError):
    """Two different functions registered under one benchmark name."""


@dataclass
class BenchmarkDef:
    """One registered benchmark."""

    name: str
    func: Callable[["Bench"], Any]
    group: str
    quick: bool
    tolerance: float
    module: str


@dataclass
class Tier:
    """Measurement knobs for one tier (full vs quick)."""

    repeats: int = 9
    warmup: int = 2
    min_time_s: float = 0.005
    max_total_s: float = 20.0


FULL_TIER = Tier()
QUICK_TIER = Tier(repeats=5, warmup=1, min_time_s=0.002, max_total_s=2.0)


class BenchmarkRegistry:
    """Name -> BenchmarkDef, with pattern/tier selection."""

    def __init__(self) -> None:
        self._defs: Dict[str, BenchmarkDef] = {}

    def register(self, defn: BenchmarkDef) -> None:
        existing = self._defs.get(defn.name)
        if existing is not None and \
                existing.func.__qualname__ != defn.func.__qualname__:
            raise DuplicateBenchmarkError(
                f"benchmark {defn.name!r} registered twice: "
                f"{existing.module}.{existing.func.__qualname__} vs "
                f"{defn.module}.{defn.func.__qualname__}")
        # Same function re-imported under another module name (pytest vs
        # CLI discovery) silently replaces itself.
        self._defs[defn.name] = defn

    def names(self) -> List[str]:
        return sorted(self._defs)

    def get(self, name: str) -> BenchmarkDef:
        return self._defs[name]

    def __len__(self) -> int:
        return len(self._defs)

    def __contains__(self, name: str) -> bool:
        return name in self._defs

    def select(self, pattern: Optional[str] = None,
               quick: bool = False,
               module: Optional[str] = None) -> List[BenchmarkDef]:
        """Benchmarks matching a shell-style ``pattern`` (substring match
        when the pattern has no wildcard), restricted to the quick tier
        and/or one defining module when asked."""
        chosen = []
        for name in self.names():
            defn = self._defs[name]
            if quick and not defn.quick:
                continue
            if module is not None and defn.module != module:
                continue
            if pattern:
                if any(ch in pattern for ch in "*?["):
                    if not fnmatch.fnmatch(name, pattern):
                        continue
                elif pattern not in name:
                    continue
            chosen.append(defn)
        return chosen

    def clear(self) -> None:
        self._defs.clear()


#: The process-global registry that ``@benchmark`` populates.
REGISTRY = BenchmarkRegistry()


def benchmark(name: str, *, group: Optional[str] = None, quick: bool = False,
              tolerance: float = DEFAULT_TOLERANCE,
              registry: Optional[BenchmarkRegistry] = None) -> Callable[
                  [Callable[["Bench"], Any]], Callable[["Bench"], Any]]:
    """Register a benchmark function under ``name``.

    ``group`` defaults to the dotted prefix of the name; ``quick=True``
    includes it in the fast CI tier; ``tolerance`` is the per-benchmark
    regression band used by compare.py (fraction of baseline median).
    """
    if tolerance <= 0:
        raise ValueError("tolerance must be > 0")

    def deco(func: Callable[["Bench"], Any]) -> Callable[["Bench"], Any]:
        reg = REGISTRY if registry is None else registry
        reg.register(BenchmarkDef(
            name=name,
            func=func,
            group=group if group is not None else name.rsplit(".", 1)[0],
            quick=quick,
            tolerance=tolerance,
            module=func.__module__,
        ))
        return func

    return deco


class Bench:
    """Handle passed to each benchmark function."""

    def __init__(self, defn: BenchmarkDef, tier: Tier, quick: bool) -> None:
        self.defn = defn
        self.tier = tier
        self.quick = quick
        self.timing: Optional[TimingResult] = None
        self.notes: Dict[str, Any] = {}

    def __call__(self, fn: Callable[[], Any]) -> Any:
        """Measure ``fn``; returns its last return value."""
        self.timing = measure(
            fn,
            repeats=self.tier.repeats,
            warmup=self.tier.warmup,
            min_time_s=self.tier.min_time_s,
            max_total_s=self.tier.max_total_s,
        )
        return self.timing.last_return

    def note(self, key: str, value: Any) -> None:
        """Attach a benchmark-specific fact to the JSON entry."""
        self.notes[key] = value


@dataclass
class RunProgress:
    """Callback payloads for run_benchmarks(on_progress=...)."""

    index: int
    total: int
    name: str
    seconds: float = 0.0
    done: bool = False


def _entry_for(defn: BenchmarkDef, bench: Bench) -> Dict[str, Any]:
    timing = bench.timing
    assert timing is not None
    return {
        "name": defn.name,
        "group": defn.group,
        "module": defn.module,
        "quick": defn.quick,
        "tolerance": defn.tolerance,
        "repeats": timing.repeats,
        "warmup": timing.warmup,
        "inner_loops": timing.inner_loops,
        "median_ns": timing.median_ns,
        "mad_ns": timing.mad_ns,
        "mean_ns": timing.mean_ns,
        "min_ns": timing.min_ns,
        "max_ns": timing.max_ns,
        "samples_ns": list(timing.samples_ns),
        "notes": dict(bench.notes),
    }


def run_benchmarks(*, registry: Optional[BenchmarkRegistry] = None,
                   quick: bool = False,
                   filter_pattern: Optional[str] = None,
                   module: Optional[str] = None,
                   tier: Optional[Tier] = None,
                   on_progress: Optional[Callable[[RunProgress], None]] = None,
                   ) -> Dict[str, Any]:
    """Run the selected benchmarks and return the report document.

    The calibration benchmark is always included (when registered) so
    every report carries a machine-speed yardstick for compare.py's
    normalization, regardless of ``--filter``.
    """
    reg = REGISTRY if registry is None else registry
    selection = reg.select(pattern=filter_pattern, quick=quick,
                           module=module)
    if CALIBRATION_BENCH in reg and \
            all(d.name != CALIBRATION_BENCH for d in selection):
        selection.insert(0, reg.get(CALIBRATION_BENCH))

    active_tier = tier if tier is not None else (
        QUICK_TIER if quick else FULL_TIER)
    narratives = report_mod.begin_capture()
    entries: List[Dict[str, Any]] = []
    try:
        for i, defn in enumerate(selection):
            if on_progress:
                on_progress(RunProgress(i, len(selection), defn.name))
            bench = Bench(defn, active_tier, quick)
            t0 = time.perf_counter()
            try:
                defn.func(bench)
            except Exception as exc:
                raise RuntimeError(
                    f"benchmark {defn.name!r} failed: {exc}") from exc
            if bench.timing is None:
                raise RuntimeError(
                    f"benchmark {defn.name!r} never invoked its timed "
                    "kernel (call b(fn) inside the function)")
            entries.append(_entry_for(defn, bench))
            if on_progress:
                on_progress(RunProgress(i, len(selection), defn.name,
                                        time.perf_counter() - t0, True))
        captured = dict(narratives)
    finally:
        report_mod.end_capture()
    return report_mod.make_report(
        environment=environment_fingerprint(),
        quick=quick,
        filter_pattern=filter_pattern,
        benchmarks=entries,
        narratives=captured,
    )


def discover_benchmarks(bench_dir: Path,
                        pattern: str = "bench_*.py") -> List[str]:
    """Import every benchmark module under ``bench_dir`` so their
    ``@benchmark`` registrations land in the global registry.

    Returns the imported module names.  The directory itself is put on
    ``sys.path`` so the modules stay importable by name.
    """
    bench_dir = Path(bench_dir)
    if not bench_dir.is_dir():
        raise FileNotFoundError(f"benchmark directory {bench_dir} not found")
    if str(bench_dir) not in sys.path:
        sys.path.insert(0, str(bench_dir))
    imported: List[str] = []
    for path in sorted(bench_dir.glob(pattern)):
        mod_name = path.stem
        if mod_name in sys.modules:
            imported.append(mod_name)
            continue
        spec = importlib.util.spec_from_file_location(mod_name, path)
        if spec is None or spec.loader is None:  # pragma: no cover
            continue
        module = importlib.util.module_from_spec(spec)
        sys.modules[mod_name] = module
        try:
            spec.loader.exec_module(module)
        except Exception:
            del sys.modules[mod_name]
            raise
        imported.append(mod_name)
    return imported


def module_main(module_name: str,
                argv: Optional[List[str]] = None) -> int:
    """Standalone entry point for one benchmark module.

    ``python benchmarks/bench_event_cost.py [--quick] [--filter PAT]
    [--output PATH]`` runs just that module's registered benchmarks,
    prints the table, and writes a consolidated BENCH_*.json.
    """
    parser = argparse.ArgumentParser(
        description=f"run the benchmarks registered by {module_name}")
    parser.add_argument("--quick", action="store_true",
                        help="fast tier: fewer repeats, smaller workloads")
    parser.add_argument("--filter", metavar="PAT",
                        help="only benchmarks whose name matches")
    parser.add_argument("--output", metavar="PATH",
                        help="where to write BENCH_*.json "
                             "(default: ./BENCH_<timestamp>.json)")
    args = parser.parse_args(argv)

    # Narrative tables land next to the benchmark module, wherever the
    # checkout lives and whatever the working directory is.
    module_file = getattr(sys.modules.get(module_name), "__file__", None)
    if module_file:
        report_mod.set_results_dir(Path(module_file).parent / "results")
    doc = run_benchmarks(quick=args.quick, filter_pattern=args.filter,
                         module=module_name)
    out = Path(args.output) if args.output else \
        report_mod.default_report_path()
    report_mod.save_report(doc, out)
    print(report_mod.render_report(doc))
    print(f"\nreport written to {out}")
    return 0


def _spin() -> int:
    """Fixed pure-python arithmetic loop: the machine-speed yardstick."""
    acc = 0
    for i in range(2048):
        acc += i * i
    return acc


@benchmark(CALIBRATION_BENCH, group="_calibration", quick=True,
           tolerance=1.0)
def _calibration_spin(b: Bench) -> None:
    """Calibrates host speed so compare.py can normalize across machines;
    never itself gated (compare skips the ``_calibration`` group)."""
    assert b(_spin) == sum(i * i for i in range(2048))
