"""Pin where the benchmarks' narrative result tables land."""

from pathlib import Path

from repro.perf.report import set_results_dir

# Next to the benchmarks, wherever this checkout lives.
set_results_dir(Path(__file__).parent / "results")
